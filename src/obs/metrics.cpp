#include "src/obs/metrics.h"

#include <algorithm>

#include "src/common/ensure.h"
#include "src/obs/json.h"

namespace gridbox::obs {

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) {
    auto& mine = gauges[name];
    mine = std::max(mine, value);
  }
  for (const auto& [name, hist] : other.histograms) {
    auto [it, inserted] = histograms.emplace(name, hist);
    if (inserted) continue;
    expects(it->second.bounds == hist.bounds,
            "histogram merge: bounds mismatch for " + name);
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      it->second.counts[i] += hist.counts[i];
    }
  }
}

std::uint64_t MetricsSnapshot::counter_or_zero(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) w.key(name).value(value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : gauges) w.key(name).value(value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, hist] : histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (const std::uint64_t b : hist.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (const std::uint64_t c : hist.counts) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace gridbox::obs
