// Empirical epidemic curves, with the paper's analytic overlay.
//
// A CurveRecorder buckets the knowledge-gain RunEvents of one run (fed by
// RunObserver, each stamped with the run's clock) into per-phase
// infected-count time series: bucket r of phase i holds how many
// (member, value) knowledge pairs existed after r gossip rounds. Divided by
// a protocol-aware denominator (the maximum achievable pairs, computed by
// run_experiment), that is the run's empirical infection fraction — the
// curves of Figures 4–11. The same JSON carries the Bailey logistic model
// (src/analysis/epidemic.h) evaluated for the same (N, K, b) and the
// closed-form completeness asymptotes (src/analysis/completeness.h), so
// empirical vs analytic plots come from one self-contained
// "gridbox-curves/1" document.
//
// Determinism: empirical fractions are computed in integer arithmetic
// (basis points); model values are quantized to basis points so the golden
// fixture is stable byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/run_event.h"

namespace gridbox::obs {

class CurveRecorder {
 public:
  struct Options {
    /// Bucket width in microseconds — one gossip round. Must be > 0.
    std::uint64_t round_us = 1;
  };

  /// Bailey logistic parameters for one phase: group size m, per-value
  /// contact rate b (already divided by the number of values in flight).
  struct PhaseModel {
    double m = 1.0;
    double b = 0.0;
  };

  /// The analytic side of the overlay (hier-gossip only; empty for the
  /// baselines, whose JSON then carries empirical rows alone).
  struct Analytic {
    bool enabled = false;
    double b = 0.0;  ///< effective per-round contact rate
    std::uint64_t rounds_per_phase = 0;
    std::vector<PhaseModel> phases;  ///< index 0 = phase 1
    double c1 = 0.0;                 ///< first_phase_completeness
    double phase_bound = 0.0;        ///< phase_completeness_bound (i >= 2)
    double protocol_bound = 0.0;     ///< protocol_completeness_bound
    double theorem1 = 0.0;           ///< theorem1_bound
  };

  explicit CurveRecorder(Options options);

  /// The kinds record() reads.
  static constexpr RunEventKinds kReads = kind_bit(RunEventKind::kGain);

  /// Buckets a knowledge gain by its time `event.at`; every other kind is
  /// ignored. kResult gains go to their own row (result dissemination is
  /// not a phase epidemic).
  void record(const RunEvent& event) {
    if ((kReads & kind_bit(event.kind)) != 0) record_gain(event);
  }

  /// Maximum achievable knowledge pairs per phase (index 0 = phase 1) and
  /// for the result row; protocol-aware, set by run_experiment.
  void set_denominators(std::vector<std::uint64_t> per_phase,
                        std::uint64_t result_denominator);
  void set_analytic(Analytic analytic);
  void set_meta(std::size_t group_size, std::uint32_t k);

  [[nodiscard]] std::uint64_t total_gains() const { return total_gains_; }

  /// Serializes everything as a "gridbox-curves/1" JSON document.
  [[nodiscard]] std::string to_json() const;

 private:
  /// Gains per bucket (rounds since t=0), indexed by bucket. A flat array:
  /// the hot path is one bounds check and an increment, and runs end after
  /// a few hundred rounds so the tail of zeroes is negligible. Zero-count
  /// buckets are skipped on output, matching the sparse representation.
  using Series = std::vector<std::uint64_t>;

  void record_gain(const RunEvent& gain);

  void write_series(class JsonWriter& w, const Series& series,
                    std::uint64_t denominator) const;

  Options options_;
  // Bucket lookup cache: run time is monotonic, so nearly every gain lands
  // in the same bucket as the previous one. The division only runs when the
  // clock crosses a bucket edge — once per round, not once per event.
  std::uint64_t cached_bucket_ = 0;
  std::uint64_t cached_start_ = 1;  ///< > cached_end_ ⇒ first use recomputes
  std::uint64_t cached_end_ = 0;
  std::vector<Series> phase_series_;  ///< index 0 = phase 1
  Series result_series_;
  std::vector<std::uint64_t> denominators_;
  std::uint64_t result_denominator_ = 0;
  Analytic analytic_;
  std::size_t group_size_ = 0;
  std::uint32_t k_ = 0;
  std::uint64_t total_gains_ = 0;
};

}  // namespace gridbox::obs
