#include "src/obs/bench_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "src/common/ensure.h"
#include "src/obs/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace gridbox::obs {

std::string BenchReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("suite").value(suite);
  w.key("git_rev").value(git_rev);
  w.key("repeats").value(repeats);
  w.key("jobs").value(static_cast<std::uint64_t>(jobs));
  w.key("entries").begin_array();
  for (const BenchEntry& e : entries) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("wall_s").value(e.wall_s);
    w.key("events_per_s").value(e.events_per_s);
    w.key("msgs_per_s").value(e.msgs_per_s);
    w.key("sim_events").value(e.sim_events);
    w.key("network_messages").value(e.network_messages);
    w.key("peak_rss_mb").value(e.peak_rss_mb);
    if (e.rss_per_member_b > 0.0) {
      w.key("rss_per_member_b").value(e.rss_per_member_b);
    }
    if (e.instances_per_s > 0.0) {
      w.key("instances_per_s").value(e.instances_per_s);
    }
    if (e.p99_completion_ms > 0.0) {
      w.key("p99_completion_ms").value(e.p99_completion_ms);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool BenchReport::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) return false;
  out << to_json() << '\n';
  return out.good();
}

BenchReport BenchReport::parse(const std::string& json_text) {
  const JsonValue root = json_parse(json_text);
  expects(root.is_object(), "bench report: top level must be an object");
  const std::string schema = root.string_or("schema", "");
  expects(schema == kSchema,
          "bench report: schema mismatch (want " + std::string(kSchema) +
              ", got " + (schema.empty() ? "<missing>" : schema) + ")");
  BenchReport report;
  report.suite = root.string_or("suite", "");
  report.git_rev = root.string_or("git_rev", "unknown");
  report.repeats = static_cast<std::uint64_t>(root.number_or("repeats", 1));
  report.jobs = static_cast<std::size_t>(root.number_or("jobs", 1));
  const JsonValue* entries = root.find("entries");
  expects(entries != nullptr && entries->is_array(),
          "bench report: missing entries array");
  for (const JsonValue& v : entries->array) {
    expects(v.is_object(), "bench report: entry must be an object");
    BenchEntry e;
    e.name = v.string_or("name", "");
    expects(!e.name.empty(), "bench report: entry without a name");
    e.wall_s = v.number_or("wall_s", 0.0);
    e.events_per_s = v.number_or("events_per_s", 0.0);
    e.msgs_per_s = v.number_or("msgs_per_s", 0.0);
    e.sim_events = static_cast<std::uint64_t>(v.number_or("sim_events", 0));
    e.network_messages =
        static_cast<std::uint64_t>(v.number_or("network_messages", 0));
    e.peak_rss_mb = v.number_or("peak_rss_mb", 0.0);
    e.rss_per_member_b = v.number_or("rss_per_member_b", 0.0);
    e.instances_per_s = v.number_or("instances_per_s", 0.0);
    e.p99_completion_ms = v.number_or("p99_completion_ms", 0.0);
    report.entries.push_back(std::move(e));
  }
  return report;
}

BenchReport BenchReport::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  expects(in.good(), "bench report: cannot read " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return parse(content.str());
}

std::string BenchDiffReport::render() const {
  std::ostringstream out;
  char line[320];
  std::snprintf(line, sizeof(line), "%-32s %12s %12s %8s %9s %9s %11s\n",
                "case", "old wall_s", "new wall_s", "ratio", "ev/s", "msg/s",
                "B/member");
  out << line;
  for (const BenchDiffRow& row : rows) {
    // Bytes-per-member is informational (never gates): shown as old->new
    // when either side reports it, blank otherwise.
    char rss[32];
    if (row.old_rss_per_member_b > 0.0 || row.new_rss_per_member_b > 0.0) {
      std::snprintf(rss, sizeof(rss), " %4.0f->%-5.0f",
                    row.old_rss_per_member_b, row.new_rss_per_member_b);
    } else {
      std::snprintf(rss, sizeof(rss), " %11s", "");
    }
    // Service-suite throughput/latency are informational like B/member:
    // rendered old->new when either side reports them, blank otherwise.
    char svc[48];
    if (row.old_instances_per_s > 0.0 || row.new_instances_per_s > 0.0) {
      std::snprintf(svc, sizeof(svc), " %5.1f->%-5.1f inst/s",
                    row.old_instances_per_s, row.new_instances_per_s);
    } else {
      svc[0] = '\0';
    }
    char p99[48];
    if (row.old_p99_completion_ms > 0.0 || row.new_p99_completion_ms > 0.0) {
      std::snprintf(p99, sizeof(p99), " %5.1f->%-5.1f p99ms",
                    row.old_p99_completion_ms, row.new_p99_completion_ms);
    } else {
      p99[0] = '\0';
    }
    // Counted work that differs between the builds: printed, never gated.
    char work[96];
    if (row.work_changed()) {
      std::snprintf(work, sizeof(work),
                    "  work changed (events %llu->%llu, msgs %llu->%llu)",
                    static_cast<unsigned long long>(row.old_sim_events),
                    static_cast<unsigned long long>(row.new_sim_events),
                    static_cast<unsigned long long>(row.old_network_messages),
                    static_cast<unsigned long long>(row.new_network_messages));
    } else {
      work[0] = '\0';
    }
    std::snprintf(line, sizeof(line),
                  "%-32s %12.6f %12.6f %7.3fx %+8.1f%% %+8.1f%%%s%s%s%s%s\n",
                  row.name.c_str(), row.old_wall_s, row.new_wall_s,
                  row.wall_ratio, (row.events_ratio - 1.0) * 100.0,
                  (row.msgs_ratio - 1.0) * 100.0, rss, svc, p99,
                  row.regressed ? "  REGRESSED" : "", work);
    out << line;
  }
  for (const std::string& name : only_in_old) {
    out << name << ": only in old reports\n";
  }
  for (const std::string& name : only_in_new) {
    out << name << ": only in new reports\n";
  }
  for (const std::string& what : inconsistent) out << what << "\n";
  std::snprintf(line, sizeof(line),
                "worst ratio %.3fx over %zu case(s), %zu regression(s)\n",
                worst_ratio, rows.size(), regressions);
  out << line;
  return out.str();
}

namespace {

/// One side's reports folded to one entry per case, in first-seen order:
/// the entry with the minimum wall. A case some report lacks, or whose
/// counts differ between reports, goes to `inconsistent`.
std::vector<BenchEntry> fold_side(const std::vector<BenchReport>& reports,
                                  const std::string& side,
                                  std::vector<std::string>& inconsistent) {
  std::vector<std::string> order;
  std::map<std::string, std::vector<const BenchEntry*>> by_name;
  for (const BenchReport& report : reports) {
    for (const BenchEntry& e : report.entries) {
      auto& seen = by_name[e.name];
      if (seen.empty()) order.push_back(e.name);
      seen.push_back(&e);
    }
  }
  std::vector<BenchEntry> folded;
  for (const std::string& name : order) {
    const std::vector<const BenchEntry*>& entries = by_name[name];
    const BenchEntry& first = *entries.front();
    const bool counts_agree =
        std::all_of(entries.begin(), entries.end(), [&](const BenchEntry* e) {
          return e->sim_events == first.sim_events &&
                 e->network_messages == first.network_messages;
        });
    if (entries.size() != reports.size()) {
      inconsistent.push_back(side + " " + name + ": in " +
                             std::to_string(entries.size()) + " of " +
                             std::to_string(reports.size()) + " reports");
    } else if (!counts_agree) {
      inconsistent.push_back(side + " " + name +
                             ": counts differ between reports");
    }
    folded.push_back(**std::min_element(
        entries.begin(), entries.end(),
        [](const BenchEntry* a, const BenchEntry* b) {
          return a->wall_s < b->wall_s;
        }));
  }
  return folded;
}

/// new/old for a rate; 0 -> 0 (a suite that doesn't report the rate)
/// renders as unchanged, not as a 100% regression.
double rate_ratio(double old_rate, double new_rate) {
  return old_rate > 0.0 ? new_rate / old_rate : new_rate > 0.0 ? 0.0 : 1.0;
}

}  // namespace

BenchDiffReport bench_diff(const std::vector<BenchReport>& old_reports,
                           const std::vector<BenchReport>& new_reports,
                           double threshold) {
  expects(threshold >= 0.0, "bench diff: threshold must be non-negative");
  expects(!old_reports.empty() && !new_reports.empty(),
          "bench diff: each side needs at least one report");
  const std::string& suite = old_reports.front().suite;
  for (const auto* side : {&old_reports, &new_reports}) {
    for (const BenchReport& r : *side) {
      expects(r.suite == suite,
              "bench diff: suite mismatch: " + suite + " vs " + r.suite);
    }
  }
  BenchDiffReport report;
  std::map<std::string, BenchEntry> old_by_name;
  for (BenchEntry& e : fold_side(old_reports, "old", report.inconsistent)) {
    old_by_name[e.name] = std::move(e);
  }
  for (const BenchEntry& e :
       fold_side(new_reports, "new", report.inconsistent)) {
    const auto it = old_by_name.find(e.name);
    if (it == old_by_name.end()) {
      report.only_in_new.push_back(e.name);
      continue;
    }
    const BenchEntry& old = it->second;
    BenchDiffRow row;
    row.name = e.name;
    row.old_wall_s = old.wall_s;
    row.new_wall_s = e.wall_s;
    // A zero old time can only compare as "no regression" or "new cost".
    row.wall_ratio = row.old_wall_s > 0.0 ? row.new_wall_s / row.old_wall_s
                     : row.new_wall_s > 0.0 ? 1.0 + threshold + 1.0
                                            : 1.0;
    row.old_events_per_s = old.events_per_s;
    row.new_events_per_s = e.events_per_s;
    row.events_ratio = rate_ratio(old.events_per_s, e.events_per_s);
    row.old_msgs_per_s = old.msgs_per_s;
    row.new_msgs_per_s = e.msgs_per_s;
    row.msgs_ratio = rate_ratio(old.msgs_per_s, e.msgs_per_s);
    row.old_rss_per_member_b = old.rss_per_member_b;
    row.new_rss_per_member_b = e.rss_per_member_b;
    row.old_instances_per_s = old.instances_per_s;
    row.new_instances_per_s = e.instances_per_s;
    row.old_p99_completion_ms = old.p99_completion_ms;
    row.new_p99_completion_ms = e.p99_completion_ms;
    row.old_sim_events = old.sim_events;
    row.new_sim_events = e.sim_events;
    row.old_network_messages = old.network_messages;
    row.new_network_messages = e.network_messages;
    row.regressed = row.wall_ratio > 1.0 + threshold;
    if (row.regressed) ++report.regressions;
    report.worst_ratio = std::max(report.worst_ratio, row.wall_ratio);
    report.rows.push_back(std::move(row));
    old_by_name.erase(it);
  }
  for (const auto& [name, entry] : old_by_name) {
    (void)entry;
    report.only_in_old.push_back(name);
  }
  return report;
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace gridbox::obs
