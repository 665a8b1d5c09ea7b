// The process group: identities, liveness, and (optionally) positions.
//
// The Group is the experiment's ground truth. Protocol nodes never read it
// directly — they act on their View and on received messages — but the
// network consults its liveness oracle and the measurement layer compares
// protocol outputs against the group's true votes.
//
// Threading: liveness is read-mostly with atomic crash publication. The
// sharded UDP runtime probes `is_alive` from every reactor thread on the
// delivery hot path, while crashes/recoveries originate on one control or
// shard thread; `is_alive`/`alive_count` are therefore lock-free atomic
// reads, and the (rare) alive<->crashed transitions serialize on a small
// internal mutex so the count stays consistent and the crash listener
// fires exactly once per member. Everything else (positions, member
// vector) is immutable after setup.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/ensure.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/membership/crash_model.h"
#include "src/membership/view.h"

namespace gridbox::membership {

class Group {
 public:
  /// Creates a group of `size` members with ids 0..size-1, all alive.
  explicit Group(std::size_t size);

  /// Movable so a world can scatter positions into its group before the
  /// group lands in place. Moving is only legal before any concurrent
  /// access (true today: worlds move their group at construction time).
  Group(Group&& other) noexcept;
  Group& operator=(Group&&) = delete;
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Members alive right now.
  [[nodiscard]] std::size_t alive_count() const {
    return alive_count_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool is_alive(MemberId id) const {
    expects(id.value() < size_, "member id out of range");
    const std::uint64_t word =
        alive_words_[id.value() >> 6].load(std::memory_order_acquire);
    return ((word >> (id.value() & 63u)) & 1u) != 0u;
  }

  /// Marks a member crashed. Idempotent; safe to call concurrently with
  /// `is_alive` readers on other threads.
  void crash(MemberId id);

  /// Observer for alive -> crashed transitions, however they are triggered
  /// (per-round crash model or chaos schedule). Fires once per member (the
  /// transition itself is serialized internally); a repeated crash() on a
  /// dead member does not re-notify. Set before the run goes concurrent.
  void set_crash_listener(std::function<void(MemberId)> listener) {
    on_crash_ = std::move(listener);
  }

  /// Marks a member recovered. Idempotent.
  void recover(MemberId id);

  /// Applies one round of the crash model to every currently-alive member.
  /// Returns the number of members that crashed this round. The model does
  /// not depend on `round`; callers still pass the round they apply.
  std::size_t apply_round_crashes(const PerRoundCrash& model,
                                  std::uint64_t round, Rng& rng);

  /// Members alive right now, ascending.
  [[nodiscard]] std::vector<MemberId> alive_members() const;

  /// All member ids (alive or not), ascending.
  [[nodiscard]] const std::vector<MemberId>& members() const {
    return *members_;
  }

  /// The member vector as a shareable handle (the full view and the state
  /// arena alias it instead of copying).
  [[nodiscard]] const std::shared_ptr<const std::vector<MemberId>>&
  shared_members() const {
    return members_;
  }

  /// Complete view over the whole group (paper's baseline assumption).
  /// Shares the group's member vector — copying the returned View is O(1).
  [[nodiscard]] View full_view() const { return View{members_}; }

  /// Assigns uniform random positions in the unit square (sensor fields).
  void scatter_positions(Rng& rng);

  /// Assigns positions on a jittered sqrt(N) x sqrt(N) grid (e.g. sensors
  /// glued to an airplane wing at roughly regular spacing).
  void grid_positions(Rng& rng, double jitter = 0.1);

  [[nodiscard]] bool has_positions() const { return !positions_.empty(); }
  [[nodiscard]] Position position(MemberId id) const;
  void set_position(MemberId id, Position p);

 private:
  std::size_t size_ = 0;
  std::size_t num_words_ = 0;
  std::shared_ptr<const std::vector<MemberId>> members_;
  std::function<void(MemberId)> on_crash_;
  /// Bit i of word i/64 == member i alive. Atomic words so shard threads
  /// read liveness lock-free while crashes publish with release stores.
  std::unique_ptr<std::atomic<std::uint64_t>[]> alive_words_;
  std::atomic<std::size_t> alive_count_{0};
  /// Serializes alive<->crashed transitions only (never taken on reads).
  mutable std::mutex transition_mutex_;
  std::vector<Position> positions_;
};

}  // namespace gridbox::membership
