#include "src/obs/curves.h"

#include <algorithm>
#include <utility>

#include "src/analysis/epidemic.h"
#include "src/common/ensure.h"
#include "src/obs/json.h"
#include "src/protocols/gossip/trace.h"

namespace gridbox::obs {

namespace {

/// Quantizes a fraction in [0, 1] to basis points. The empirical rows never
/// go through here (they are integer-exact); only model values do.
std::uint64_t to_bp(double frac) {
  if (frac <= 0.0) return 0;
  if (frac >= 1.0) return 10'000;
  return static_cast<std::uint64_t>(frac * 10'000.0 + 0.5);
}

}  // namespace

CurveRecorder::CurveRecorder(Options options) : options_(options) {
  expects(options_.round_us > 0, "curve recorder needs a round duration");
}

void CurveRecorder::record_gain(const RunEvent& gain) {
  const auto t = static_cast<std::uint64_t>(gain.at.ticks());
  std::uint64_t bucket;
  if (t >= cached_start_ && t < cached_end_) {
    bucket = cached_bucket_;
  } else {
    bucket = t / options_.round_us;
    cached_bucket_ = bucket;
    cached_start_ = bucket * options_.round_us;
    cached_end_ = cached_start_ + options_.round_us;
  }
  ++total_gains_;
  using protocols::gossip::GainKind;
  if (gain.aux == static_cast<std::uint8_t>(GainKind::kResult)) {
    if (bucket >= result_series_.size()) result_series_.resize(bucket + 1);
    ++result_series_[bucket];
    return;
  }
  const std::size_t phase = gain.phase;
  if (phase == 0) return;  // defensive: phases are 1-based
  if (phase > phase_series_.size()) phase_series_.resize(phase);
  Series& series = phase_series_[phase - 1];
  if (bucket >= series.size()) series.resize(bucket + 1);
  ++series[bucket];
}

void CurveRecorder::set_denominators(std::vector<std::uint64_t> per_phase,
                                     std::uint64_t result_denominator) {
  denominators_ = std::move(per_phase);
  result_denominator_ = result_denominator;
}

void CurveRecorder::set_analytic(Analytic analytic) {
  analytic_ = std::move(analytic);
}

void CurveRecorder::set_meta(std::size_t group_size, std::uint32_t k) {
  group_size_ = group_size;
  k_ = k;
}

void CurveRecorder::write_series(JsonWriter& w, const Series& series,
                                 std::uint64_t denominator) const {
  // Cumulative counts, integer basis points: (cum * 10000 + d/2) / d.
  w.begin_array();
  std::uint64_t cum = 0;
  for (std::uint64_t bucket = 0; bucket < series.size(); ++bucket) {
    const std::uint64_t count = series[bucket];
    if (count == 0) continue;
    cum += count;
    w.begin_object();
    w.key("r");
    w.value(bucket);
    w.key("count");
    w.value(cum);
    if (denominator > 0) {
      // Saturate at 100%: adoption shortcuts can push raw gain counts past
      // the per-phase ceiling (an adopted aggregate is extra knowledge on
      // top of a full set of child slots).
      w.key("frac_bp");
      w.value(std::min<std::uint64_t>(
          (cum * 10'000 + denominator / 2) / denominator, 10'000));
    }
    w.end_object();
  }
  w.end_array();
}

std::string CurveRecorder::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("gridbox-curves/1");
  w.key("group_size");
  w.value(static_cast<std::uint64_t>(group_size_));
  w.key("k");
  w.value(static_cast<std::uint64_t>(k_));
  w.key("round_us");
  w.value(options_.round_us);
  w.key("total_gains");
  w.value(total_gains_);

  w.key("phases");
  w.begin_array();
  for (std::size_t i = 0; i < phase_series_.size(); ++i) {
    const std::uint64_t denom =
        i < denominators_.size() ? denominators_[i] : 0;
    w.begin_object();
    w.key("phase");
    w.value(static_cast<std::uint64_t>(i + 1));
    w.key("denominator");
    w.value(denom);
    w.key("samples");
    write_series(w, phase_series_[i], denom);
    if (analytic_.enabled && i < analytic_.phases.size() &&
        analytic_.rounds_per_phase > 0) {
      // Bailey logistic for this phase's (m, b), one point per round. The
      // rounds are global (phase i nominally spans rounds (i-1)R .. iR) so
      // model and empirical samples share an x-axis.
      const PhaseModel& pm = analytic_.phases[i];
      const std::uint64_t phase_start =
          static_cast<std::uint64_t>(i) * analytic_.rounds_per_phase;
      w.key("model");
      w.begin_array();
      for (std::uint64_t r = 0; r <= analytic_.rounds_per_phase; ++r) {
        w.begin_object();
        w.key("r");
        w.value(phase_start + r);
        w.key("frac_bp");
        w.value(to_bp(analysis::infection_probability(
            pm.m, pm.b, static_cast<double>(r))));
        w.end_object();
      }
      w.end_array();
      w.key("asymptote_bp");
      w.value(to_bp(i == 0 ? analytic_.c1 : analytic_.phase_bound));
    }
    w.end_object();
  }
  w.end_array();

  w.key("result");
  w.begin_object();
  w.key("denominator");
  w.value(result_denominator_);
  w.key("samples");
  write_series(w, result_series_, result_denominator_);
  w.end_object();

  if (analytic_.enabled) {
    w.key("analytic");
    w.begin_object();
    w.key("b_milli");  // b exceeds 1; milli-units, not basis points
    w.value(static_cast<std::uint64_t>(analytic_.b * 1000.0 + 0.5));
    w.key("rounds_per_phase");
    w.value(analytic_.rounds_per_phase);
    w.key("c1_bp");
    w.value(to_bp(analytic_.c1));
    w.key("phase_bound_bp");
    w.value(to_bp(analytic_.phase_bound));
    w.key("protocol_bound_bp");
    w.value(to_bp(analytic_.protocol_bound));
    w.key("theorem1_bp");
    w.value(to_bp(analytic_.theorem1));
    w.end_object();
  }

  w.end_object();
  return w.take();
}

}  // namespace gridbox::obs
