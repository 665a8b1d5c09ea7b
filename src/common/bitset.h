// Dynamic bitset used for vote-audit tracking and protocol knowledge vectors.
//
// The paper imposes a *no double counting* constraint (§2): no member's vote
// may be included twice in any aggregate. The protocol guarantees this by
// construction (disjoint subtree partials), and the test suite *verifies* it
// by attaching one of these sets to every partial in audit mode: a merge of
// two partials whose member sets intersect is a double count.
//
// Since the struct-of-arrays refactor the protocols also use this class as
// their per-node knowledge/infection vector, so the hot operations (empty,
// intersects, merge, count) maintain a used-words watermark: the highest
// word index that has ever held a nonzero bit, plus one. Scans stop at the
// watermark instead of walking the whole (possibly 10^6-bit) universe, which
// matters because most sets are sparse prefixes of a huge universe.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace gridbox {

class MemberBitset {
 public:
  MemberBitset() = default;
  explicit MemberBitset(std::size_t universe_size);

  [[nodiscard]] std::size_t universe_size() const { return size_; }

  void set(std::size_t i);
  void reset(std::size_t i);
  [[nodiscard]] bool test(std::size_t i) const;

  /// Grows the universe to at least `universe_size` bits, preserving set
  /// bits. No-op when already at least that large.
  void grow_universe(std::size_t universe_size);

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const;

  /// True iff this and other share any set bit.
  [[nodiscard]] bool intersects(const MemberBitset& other) const;

  /// Set-union in place. Universes must match (or either may be empty).
  void merge(const MemberBitset& other);

  /// True iff no bit is set. O(1): checks the used-words watermark.
  [[nodiscard]] bool empty() const { return used_words_ == 0; }

  /// Calls fn(index) for every set bit in ascending index order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t wi = 0; wi < used_words_; ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn(wi * kBits + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

  friend bool operator==(const MemberBitset&, const MemberBitset&);

 private:
  static constexpr std::size_t kBits = 64;

  void bump_watermark(std::size_t word_index) {
    if (word_index >= used_words_) used_words_ = word_index + 1;
  }
  void settle_watermark();

  std::size_t size_ = 0;
  // Highest word index ever nonzero, plus one. Words at or past this index
  // are all zero; words below it may have become zero again after reset().
  std::size_t used_words_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace gridbox
