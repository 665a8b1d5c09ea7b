// Exclusive per-layer profiling for a simulated run (`--profile`).
//
// A leaf utility (standard library and the TSC intrinsic), so the sim, net
// and protocols layers can include it without a cycle through obs. A
// LayerClock installed on the thread (a thread-local pointer, null unless
// profiling is on) tracks the current layer. A LayerScope at a seam reads
// the clock on entry and on exit, and each read charges the time since the
// previous read to the layer that was current. So every tick of the window
// lands in exactly one layer, and the layers sum to the window by
// construction. With no clock installed a scope is one thread-local load
// and a branch.
//
// A layer's count is the number of times control crossed into it (a scope
// for the current layer is free and uncounted). Counts are a pure function
// of (config, seed) and merge identically at any --jobs; self times are
// wall-clock, like wall_s.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace gridbox::obs {

enum class Layer : std::uint8_t {
  kRunner,          ///< setup, final check and measure
  kSimLoop,         ///< event queue and dispatch
  kProtocolsRound,  ///< timer and action events: round logic
  kProtocolsRecv,   ///< frame deliveries: decode and merge
  kCodecEncode,     ///< building gossip frames
  kNetSend,         ///< fault model, latency draw and enqueue
  kProtocolsCheck,  ///< the run invariant checker's hooks
  kObs,             ///< observer hooks and telemetry sampling
};

inline constexpr std::size_t kLayerCount = 8;

/// Output names, indexed by Layer.
inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "runner",       "sim.loop", "protocols.round", "protocols.recv",
    "codec.encode", "net.send", "protocols.check", "obs"};

struct ProfileEntry {
  std::uint64_t count = 0;
  std::uint64_t self_ns = 0;
};

/// Per-layer totals: the unit the sweep merges and the CLI and manifest
/// print. Empty unless the run was profiled.
struct ProfileSnapshot {
  std::array<ProfileEntry, kLayerCount> layers{};

  [[nodiscard]] const ProfileEntry& at(Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
  /// A profiled run always opens the runner layer.
  [[nodiscard]] bool empty() const { return at(Layer::kRunner).count == 0; }
  [[nodiscard]] std::uint64_t total_ns() const;  ///< the profiled window
  void merge(const ProfileSnapshot& other);      ///< layer-wise sums
  /// {"runner":{"count":N,"self_ns":T},...} in table order.
  [[nodiscard]] std::string to_json() const;
};

class LayerClock;

namespace detail {
inline thread_local LayerClock* t_layer_clock = nullptr;
}  // namespace detail

/// One thread's profiling window. Construction installs the clock on this
/// thread and opens the `runner` layer; destruction restores the clock
/// installed before.
class LayerClock {
 public:
  LayerClock();
  ~LayerClock() { detail::t_layer_clock = previous_; }
  LayerClock(const LayerClock&) = delete;
  LayerClock& operator=(const LayerClock&) = delete;

  [[nodiscard]] static LayerClock* current() { return detail::t_layer_clock; }

  /// Makes `layer` current; returns the layer it interrupts.
  Layer enter(Layer layer) {
    const Layer outer = current_;
    if (layer != outer) {
      charge();
      current_ = layer;
      ++count_[static_cast<std::size_t>(layer)];
    }
    return outer;
  }
  /// Returns to `outer`, the layer the matching enter() returned.
  void leave(Layer outer) {
    if (outer != current_) {
      charge();
      current_ = outer;
    }
  }

  /// Closes the window here; the self times sum exactly to window_ns().
  [[nodiscard]] ProfileSnapshot snapshot();
  /// Wall nanoseconds from construction to the last snapshot().
  [[nodiscard]] std::uint64_t window_ns() const { return window_ns_; }

 private:
  /// The TSC where there is one (half the cost of a steady_clock read).
  static std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }
  void charge() {
    const std::uint64_t now = ticks();
    self_ticks_[static_cast<std::size_t>(current_)] += now - mark_;
    mark_ = now;
  }

  LayerClock* previous_;
  Layer current_ = Layer::kRunner;
  std::uint64_t mark_;
  std::uint64_t start_ticks_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t window_ns_ = 0;
  std::array<std::uint64_t, kLayerCount> self_ticks_{};
  std::array<std::uint64_t, kLayerCount> count_{};
};

/// Charges the enclosing scope to `layer` on this thread's clock, if any.
class LayerScope {
 public:
  explicit LayerScope(Layer layer) : clock_(LayerClock::current()) {
    if (clock_ != nullptr) outer_ = clock_->enter(layer);
  }
  ~LayerScope() {
    if (clock_ != nullptr) clock_->leave(outer_);
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  LayerClock* clock_;
  Layer outer_ = Layer::kRunner;
};

}  // namespace gridbox::obs
