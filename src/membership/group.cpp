#include "src/membership/group.h"

#include <cmath>

namespace gridbox::membership {

Group::Group(std::size_t size)
    : size_(size),
      num_words_((size + 63) / 64),
      alive_words_(new std::atomic<std::uint64_t>[(size + 63) / 64]),
      alive_count_(size) {
  expects(size > 0, "group must have at least one member");
  for (std::size_t w = 0; w < num_words_; ++w) {
    alive_words_[w].store(~std::uint64_t{0}, std::memory_order_relaxed);
  }
  // Clear the tail bits past size so a full-word view never counts ghosts.
  const std::size_t tail = size_ & 63u;
  if (tail != 0) {
    alive_words_[num_words_ - 1].store((std::uint64_t{1} << tail) - 1,
                                       std::memory_order_relaxed);
  }
  std::vector<MemberId> ids;
  ids.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    ids.push_back(MemberId{static_cast<MemberId::underlying>(i)});
  }
  members_ = std::make_shared<const std::vector<MemberId>>(std::move(ids));
}

Group::Group(Group&& other) noexcept
    : size_(other.size_),
      num_words_(other.num_words_),
      members_(std::move(other.members_)),
      on_crash_(std::move(other.on_crash_)),
      alive_words_(std::move(other.alive_words_)),
      alive_count_(other.alive_count_.load(std::memory_order_relaxed)),
      positions_(std::move(other.positions_)) {
  other.size_ = 0;
  other.num_words_ = 0;
}

void Group::crash(MemberId id) {
  expects(id.value() < size_, "member id out of range");
  const std::size_t word_index = id.value() >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (id.value() & 63u);
  {
    std::lock_guard<std::mutex> lock(transition_mutex_);
    const std::uint64_t cur =
        alive_words_[word_index].load(std::memory_order_relaxed);
    if ((cur & bit) == 0) return;  // already dead: no re-notify
    alive_words_[word_index].store(cur & ~bit, std::memory_order_release);
    alive_count_.fetch_sub(1, std::memory_order_release);
  }
  // Outside the transition lock: listeners may do real work (fan a crash
  // into every running service instance) or consult liveness themselves.
  if (on_crash_) on_crash_(id);
}

void Group::recover(MemberId id) {
  expects(id.value() < size_, "member id out of range");
  const std::size_t word_index = id.value() >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (id.value() & 63u);
  std::lock_guard<std::mutex> lock(transition_mutex_);
  const std::uint64_t cur =
      alive_words_[word_index].load(std::memory_order_relaxed);
  if ((cur & bit) != 0) return;  // already alive
  alive_words_[word_index].store(cur | bit, std::memory_order_release);
  alive_count_.fetch_add(1, std::memory_order_release);
}

std::vector<MemberId> Group::alive_members() const {
  std::vector<MemberId> alive;
  for (const MemberId m : members()) {
    if (is_alive(m)) alive.push_back(m);
  }
  return alive;
}

std::size_t Group::apply_round_crashes(const PerRoundCrash& model,
                                       std::uint64_t /*round*/, Rng& rng) {
  std::size_t crashed = 0;
  for (const MemberId m : members()) {
    if (is_alive(m) && model.crashes(rng)) {
      crash(m);
      ++crashed;
    }
  }
  return crashed;
}

void Group::scatter_positions(Rng& rng) {
  positions_.resize(size_);
  for (auto& p : positions_) p = Position{rng.uniform(), rng.uniform()};
}

void Group::grid_positions(Rng& rng, double jitter) {
  expects(jitter >= 0.0, "jitter must be non-negative");
  const std::size_t n = size_;
  const auto side =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  positions_.resize(n);
  const double cell = 1.0 / static_cast<double>(side);
  for (std::size_t i = 0; i < n; ++i) {
    const double cx = (static_cast<double>(i % side) + 0.5) * cell;
    const double cy = (static_cast<double>(i / side) + 0.5) * cell;
    positions_[i] = Position{cx + (rng.uniform() - 0.5) * jitter * cell,
                             cy + (rng.uniform() - 0.5) * jitter * cell};
  }
}

Position Group::position(MemberId id) const {
  expects(has_positions(), "group has no positions assigned");
  expects(id.value() < positions_.size(), "member id out of range");
  return positions_[id.value()];
}

void Group::set_position(MemberId id, Position p) {
  if (positions_.empty()) positions_.resize(size_);
  expects(id.value() < positions_.size(), "member id out of range");
  positions_[id.value()] = p;
}

}  // namespace gridbox::membership
