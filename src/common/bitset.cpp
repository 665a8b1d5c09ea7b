#include "src/common/bitset.h"

#include <algorithm>
#include <bit>

#include "src/common/ensure.h"

namespace gridbox {

MemberBitset::MemberBitset(std::size_t universe_size)
    : size_(universe_size), words_((universe_size + kBits - 1) / kBits, 0) {}

void MemberBitset::set(std::size_t i) {
  expects(i < size_, "bit index out of range");
  const std::size_t wi = i / kBits;
  words_[wi] |= (std::uint64_t{1} << (i % kBits));
  bump_watermark(wi);
}

void MemberBitset::reset(std::size_t i) {
  expects(i < size_, "bit index out of range");
  words_[i / kBits] &= ~(std::uint64_t{1} << (i % kBits));
  settle_watermark();
}

bool MemberBitset::test(std::size_t i) const {
  if (i >= size_) return false;
  return (words_[i / kBits] >> (i % kBits)) & 1U;
}

void MemberBitset::grow_universe(std::size_t universe_size) {
  if (universe_size <= size_) return;
  size_ = universe_size;
  words_.resize((universe_size + kBits - 1) / kBits, 0);
}

void MemberBitset::settle_watermark() {
  while (used_words_ > 0 && words_[used_words_ - 1] == 0) --used_words_;
}

std::size_t MemberBitset::count() const {
  std::size_t total = 0;
  for (std::size_t wi = 0; wi < used_words_; ++wi) {
    total += static_cast<std::size_t>(std::popcount(words_[wi]));
  }
  return total;
}

bool MemberBitset::intersects(const MemberBitset& other) const {
  const std::size_t n = std::min(used_words_, other.used_words_);
  for (std::size_t i = 0; i < n; ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

void MemberBitset::merge(const MemberBitset& other) {
  if (other.size_ == 0) return;
  if (size_ == 0) {
    *this = other;
    return;
  }
  expects(size_ == other.size_, "bitset universes differ");
  for (std::size_t i = 0; i < other.used_words_; ++i) words_[i] |= other.words_[i];
  if (other.used_words_ > used_words_) used_words_ = other.used_words_;
}

bool operator==(const MemberBitset& a, const MemberBitset& b) {
  return a.size_ == b.size_ && a.words_ == b.words_;
}

}  // namespace gridbox
