// Scoped profiling timers for the simulation hot paths.
//
// Deliberately a leaf utility (depends only on the standard library) so the
// sim/net layers can include it without a layering cycle through obs.
//
// Model: a ProfileCollector is installed per run on the executing thread
// (thread_local current pointer). GRIDBOX_PROFILE_SCOPE(name) at a hot-path
// entry reads that pointer; when none is installed — the default — the cost
// is one thread-local load and a branch, no clock reads. When installed, the
// scope records count and elapsed nanoseconds into the collector, keyed by
// the (static) section name. Each run's collector is snapshotted into its
// RunResult and the sweep reducer merges snapshots in slot order, so the
// *structure* of the merged profile (section names, counts) is deterministic
// at any --jobs; elapsed times are wall-clock measurements and are reported,
// like wall_s, as throughput telemetry rather than replayable output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace gridbox::obs {

struct ProfileEntry {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// Per-section totals, detached from the collector. Name-ordered.
struct ProfileSnapshot {
  std::map<std::string, ProfileEntry> sections;

  [[nodiscard]] bool empty() const { return sections.empty(); }

  /// Adds counts and times section-wise (associative).
  void merge(const ProfileSnapshot& other);

  /// {"name":{"count":N,"total_ns":T},...}
  [[nodiscard]] std::string to_json() const;
};

/// One run's (one thread's) profile accumulator.
class ProfileCollector {
 public:
  ProfileCollector() = default;
  ProfileCollector(const ProfileCollector&) = delete;
  ProfileCollector& operator=(const ProfileCollector&) = delete;

  /// The collector scoped timers on this thread record into (may be null).
  [[nodiscard]] static ProfileCollector* current();

  void record(const char* section, std::uint64_t ns);
  [[nodiscard]] ProfileSnapshot snapshot() const;

 private:
  friend class ProfileInstallGuard;
  // Keyed by the section-name pointer: scope names are string literals, so
  // within one translation unit pointer identity is name identity and the
  // hot-path lookup avoids string hashing. The same literal in different
  // TUs can land at different addresses (no string pooling guarantee), so
  // snapshot() re-keys by *content* and merges entries whose names collide —
  // keying output by pointer would split identical sections into duplicate
  // rows with address-dependent order.
  std::map<const char*, ProfileEntry> entries_;
};

/// Installs `collector` as the thread's current collector for its lifetime
/// (restores the previous one on destruction). Null is allowed: profiling
/// stays off and scopes stay free.
class ProfileInstallGuard {
 public:
  explicit ProfileInstallGuard(ProfileCollector* collector);
  ~ProfileInstallGuard();
  ProfileInstallGuard(const ProfileInstallGuard&) = delete;
  ProfileInstallGuard& operator=(const ProfileInstallGuard&) = delete;

 private:
  ProfileCollector* previous_;
};

/// Times one lexical scope into the thread's current collector, if any.
/// `section` must be a string literal (or otherwise outlive the collector).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* section)
      : collector_(ProfileCollector::current()), section_(section) {
    if (collector_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (collector_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      collector_->record(
          section_,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfileCollector* collector_;
  const char* section_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace gridbox::obs

#define GRIDBOX_PROFILE_CONCAT2(a, b) a##b
#define GRIDBOX_PROFILE_CONCAT(a, b) GRIDBOX_PROFILE_CONCAT2(a, b)
/// Times the enclosing scope under `name` (a string literal).
#define GRIDBOX_PROFILE_SCOPE(name)                       \
  ::gridbox::obs::ScopedTimer GRIDBOX_PROFILE_CONCAT(     \
      gridbox_profile_scope_, __LINE__)(name)
