// The differential oracle's verdict on hand-built rows: every failure class
// of the agreement rule (src/runner/differential.h) must turn the report
// DIVERGED and name the run, the instance and the reason, and the protocol
// axis must stay lenient where the substrate axis is strict. No run, no
// socket: the end-to-end oracles are exercised by test_udp_differential.cpp,
// test_chaos_fuzz.cpp and the udp/service gates.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/runner/differential.h"

namespace gridbox::runner {
namespace {

/// A row that agrees: ran, completed, every survivor finished, honest.
[[nodiscard]] DifferentialRow clean_row(const std::string& label,
                                        std::uint32_t instance,
                                        double true_value) {
  DifferentialRow row;
  row.label = label;
  row.ran = true;
  row.outcome.id = instance;
  row.outcome.completed = true;
  row.outcome.participants = 8;
  row.outcome.measurement.group_size = 8;
  row.outcome.measurement.survivors = 8;
  row.outcome.measurement.finished_nodes = 8;
  row.outcome.measurement.true_value = true_value;
  return row;
}

/// Two instances on two substrates; instances differ in ground truth, which
/// is legitimate (each has its own world).
[[nodiscard]] DifferentialReport clean_report(DifferentialAxis axis) {
  DifferentialReport report;
  report.axis = axis;
  report.rows = {clean_row("sim", 0, 0.25), clean_row("sim", 3, 0.5),
                 clean_row("udp", 0, 0.25), clean_row("udp", 3, 0.5)};
  return report;
}

/// The describe() line of `label`'s row for `instance`.
[[nodiscard]] std::string line_of(const std::string& text,
                                  const std::string& label,
                                  std::uint32_t instance) {
  const std::string prefix =
      label + ": instance " + std::to_string(instance) + ":";
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

struct FailureClass {
  const char* name;
  std::function<void(DifferentialRow&)> plant;
  const char* reason;
};

const std::vector<FailureClass>& every_axis_classes() {
  static const std::vector<FailureClass> classes = {
      {"did not run",
       [](DifferentialRow& r) {
         r.ran = false;
         r.error = "bind failed";
       },
       "did not run: bind failed"},
      {"audit violation",
       [](DifferentialRow& r) { r.outcome.measurement.audit_violations = 2; },
       "dishonest: audit violations 2, reconstruction failures 0"},
      {"reconstruction failure",
       [](DifferentialRow& r) {
         r.outcome.measurement.reconstruction_failures = 1;
       },
       "dishonest: audit violations 0, reconstruction failures 1"},
      {"true_value mismatch",
       [](DifferentialRow& r) {
         r.outcome.measurement.true_value = 0.5000000000000001;  // one ulp
       },
       "true_value 0.50000000000000011 differs from sim's 0.5"},
      {"participant mismatch",
       [](DifferentialRow& r) { r.outcome.participants = 7; },
       "participants 7 differ from sim's 8"},
  };
  return classes;
}

const std::vector<FailureClass>& substrate_only_classes() {
  static const std::vector<FailureClass> classes = {
      {"not completed",
       [](DifferentialRow& r) { r.outcome.completed = false; },
       "did not complete"},
      {"unfinished survivor",
       [](DifferentialRow& r) { r.outcome.measurement.finished_nodes = 7; },
       "finished 7/8 survivors"},
      {"invariant violation",
       [](DifferentialRow& r) {
         r.outcome.invariant_violations = 1;
         r.outcome.first_violation = "M2 double-counted a vote";
       },
       "invariant violations 1, first: M2 double-counted a vote"},
  };
  return classes;
}

/// Plants `failure` in udp's row for instance 3 and checks the verdict.
void expect_diverges(DifferentialAxis axis, const FailureClass& failure) {
  SCOPED_TRACE(failure.name);
  DifferentialReport report = clean_report(axis);
  failure.plant(report.rows[3]);
  EXPECT_FALSE(report.ok());
  const std::string text = report.describe();
  const std::string line = line_of(text, "udp", 3);
  EXPECT_NE(line.find(std::string("DIVERGED: ") + failure.reason),
            std::string::npos)
      << text;
  // The planted row is the only one blamed.
  EXPECT_EQ(line_of(text, "sim", 3).find("DIVERGED"), std::string::npos)
      << text;
  EXPECT_EQ(line_of(text, "udp", 0).find("DIVERGED"), std::string::npos)
      << text;
  ASSERT_GE(text.size(), 9u);
  EXPECT_EQ(text.substr(text.size() - 9), "DIVERGED\n") << text;
}

TEST(Differential, AgreeingRowsAreOkOnBothAxes) {
  for (const DifferentialAxis axis :
       {DifferentialAxis::kProtocols, DifferentialAxis::kSubstrates}) {
    const DifferentialReport report = clean_report(axis);
    EXPECT_TRUE(report.ok());
    const std::string text = report.describe();
    EXPECT_NE(line_of(text, "sim", 0).find("true_value 0.25"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.substr(text.size() - 3), "OK\n") << text;
  }
}

TEST(Differential, EmptyReportIsNotOk) {
  EXPECT_FALSE(DifferentialReport{}.ok());
}

TEST(Differential, EveryFailureClassDivergesOnBothAxes) {
  for (const FailureClass& failure : every_axis_classes()) {
    expect_diverges(DifferentialAxis::kProtocols, failure);
    expect_diverges(DifferentialAxis::kSubstrates, failure);
  }
}

TEST(Differential, SubstrateAxisAlsoDemandsCompletion) {
  for (const FailureClass& failure : substrate_only_classes()) {
    expect_diverges(DifferentialAxis::kSubstrates, failure);
  }
}

// A partition can legitimately stop centralized survivors from finishing:
// the protocol axis judges honesty and ground truth only.
TEST(Differential, UnfinishedSurvivorLeavesTheProtocolAxisOk) {
  DifferentialReport report = clean_report(DifferentialAxis::kProtocols);
  report.rows[3].outcome.measurement.finished_nodes = 5;
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.describe().substr(report.describe().size() - 3), "OK\n");
}

}  // namespace
}  // namespace gridbox::runner
