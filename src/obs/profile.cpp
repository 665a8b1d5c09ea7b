#include "src/obs/profile.h"

#include <algorithm>

#include "src/obs/json.h"

namespace gridbox::obs {

LayerClock::LayerClock()
    : previous_(detail::t_layer_clock),
      mark_(ticks()),
      start_ticks_(mark_),
      start_(std::chrono::steady_clock::now()) {
  detail::t_layer_clock = this;
  count_[static_cast<std::size_t>(Layer::kRunner)] = 1;
}

ProfileSnapshot LayerClock::snapshot() {
  charge();
  window_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  // Ticks become nanoseconds at the window's own rate. Converting running
  // sums keeps the parts adding up to the window exactly.
  const std::uint64_t window_ticks = std::max<std::uint64_t>(
      1, mark_ - start_ticks_);
  const auto to_ns = [&](std::uint64_t t) {
    return static_cast<std::uint64_t>(static_cast<unsigned __int128>(t) *
                                      window_ns_ / window_ticks);
  };
  ProfileSnapshot snap;
  std::uint64_t ticks = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::uint64_t before = to_ns(ticks);
    ticks += self_ticks_[i];
    snap.layers[i] = {count_[i], to_ns(ticks) - before};
  }
  return snap;
}

std::uint64_t ProfileSnapshot::total_ns() const {
  std::uint64_t total = 0;
  for (const ProfileEntry& entry : layers) total += entry.self_ns;
  return total;
}

void ProfileSnapshot::merge(const ProfileSnapshot& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layers[i].count += other.layers[i].count;
    layers[i].self_ns += other.layers[i].self_ns;
  }
}

std::string ProfileSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    w.key(kLayerNames[i]).begin_object();
    w.key("count").value(layers[i].count);
    w.key("self_ns").value(layers[i].self_ns);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace gridbox::obs
