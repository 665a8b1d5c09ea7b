// Vote-provenance audit (test & verification infrastructure).
//
// The paper's no-double-counting constraint (§2) is guaranteed structurally
// by the protocols (disjoint subtree partials), and this registry *proves* it
// per run. Every partial flowing through a protocol can carry an 8-byte audit
// token on the wire; the registry maps tokens to the exact set of members
// whose votes the partial summarizes. Registering a merge of non-disjoint
// sets is the double-counting bug the constraint forbids — it is counted and
// (optionally) thrown on.
//
// Tokens are simulation-side metadata, not protocol information: protocols
// forward them opaquely and never branch on them, so audited and unaudited
// runs execute identically.
//
// Storage is built for 10^5..10^6-member universes. One full-width bitset
// per token would be O(tokens * N) bits (~gigabytes at N=100k); instead each
// token references a *record* holding only the nonzero word window of its
// set, records are content-deduplicated (saturated subtree sets repeat
// across members of a group), and an optional member→bit permutation
// (set_bit_order) lays hierarchy boxes out contiguously so subtree windows
// stay narrow. All queries are phrased in member space; the permutation is
// invisible except through for_each_member's iteration order.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/types.h"

namespace gridbox::agg {

/// Token value meaning "no audit attached".
inline constexpr std::uint64_t kNoAuditToken = 0;

class AuditRegistry {
 public:
  /// `universe` is the group size; member i's vote is tracked by one bit.
  explicit AuditRegistry(std::size_t universe);

  /// Installs a member→bit permutation (size == universe). Must be called
  /// before any token is issued. Sorting members by hierarchy box makes
  /// subtree sets contiguous bit ranges, which is what keeps the windowed
  /// records narrow; without it storage is still correct, just wider.
  void set_bit_order(std::vector<std::uint32_t> member_to_bit);

  /// Arms the internal mutex around register_vote/register_merge so nodes
  /// on different reactor shards can register concurrently. Off by default:
  /// the simulator path stays lock-free and pays only an untaken branch.
  /// Reads (set_of, for_each_member, record_of) stay unsynchronized — call
  /// them only before the run goes concurrent or after the shards join;
  /// violation_count()/unknown_token_count() are atomic and safe mid-run.
  void set_concurrent(bool on) { concurrent_ = on; }

  /// Token for the singleton set {member}.
  [[nodiscard]] std::uint64_t register_vote(MemberId member);

  /// Token for the union of the sets behind `tokens` (kNoAuditToken entries
  /// are ignored). Overlapping sets increment violation_count(). Tokens this
  /// registry never issued (possible when untrusted peers forge wire bytes)
  /// are skipped and counted in unknown_token_count() — audit instrumentation
  /// must never crash a node.
  [[nodiscard]] std::uint64_t register_merge(
      const std::vector<std::uint64_t>& tokens);

  /// The member set behind a token, materialized in member space. Requires a
  /// token from this registry. O(set size) — reporting/test use only.
  [[nodiscard]] MemberBitset set_of(std::uint64_t token) const;

  /// Calls fn(MemberId) for every member behind `token`, in bit order
  /// (== ascending member id under the identity bit order).
  template <typename Fn>
  void for_each_member(std::uint64_t token, Fn&& fn) const {
    const Record& rec = record(token);
    for (std::uint32_t wi = 0; wi < rec.num_words; ++wi) {
      std::uint64_t w = pool_[rec.pool_index + wi];
      const std::size_t base =
          (static_cast<std::size_t>(rec.first_word) + wi) * 64;
      while (w != 0) {
        const std::size_t bit =
            base + static_cast<std::size_t>(std::countr_zero(w));
        fn(MemberId{static_cast<MemberId::underlying>(to_member(bit))});
        w &= w - 1;
      }
    }
  }

  /// Number of votes behind the token (0 for kNoAuditToken). O(1).
  [[nodiscard]] std::size_t votes_behind(std::uint64_t token) const;

  /// The storage record a token resolves to. Content-deduplicated: two
  /// tokens over identical member sets share a record id, which makes this a
  /// memoization key for per-set derived values (see measure_run).
  [[nodiscard]] std::size_t record_of(std::uint64_t token) const;

  /// How many merges combined overlapping member sets. Any nonzero value is
  /// a protocol bug (double counting) — unless unknown_token_count() is also
  /// nonzero, which indicates forged wire data rather than a protocol bug.
  [[nodiscard]] std::uint64_t violation_count() const {
    return violations_.load(std::memory_order_acquire);
  }

  /// Merge inputs that were not tokens issued by this registry.
  [[nodiscard]] std::uint64_t unknown_token_count() const {
    return unknown_tokens_.load(std::memory_order_acquire);
  }

 private:
  struct Record {
    std::uint32_t first_word = 0;  ///< absolute word offset of the window
    std::uint32_t num_words = 0;   ///< window width (0 == empty set)
    std::uint32_t pool_index = 0;  ///< window start in pool_
    std::uint32_t count = 0;       ///< cached popcount
    std::uint64_t hash = 0;
  };

  [[nodiscard]] const Record& record(std::uint64_t token) const;
  [[nodiscard]] std::size_t to_bit(std::size_t member) const {
    return member_to_bit_.empty() ? member : member_to_bit_[member];
  }
  [[nodiscard]] std::size_t to_member(std::size_t bit) const {
    return bit_to_member_.empty() ? bit : bit_to_member_[bit];
  }
  /// Interns the trimmed window [first_word, first_word+num_words) currently
  /// sitting in `words` and returns its record index (existing on dedup hit).
  std::uint32_t intern(std::uint32_t first_word, const std::uint64_t* words,
                       std::uint32_t num_words);

  std::size_t universe_;
  std::vector<std::uint32_t> member_to_bit_;  // empty == identity
  std::vector<std::uint32_t> bit_to_member_;
  std::vector<std::uint32_t> token_record_;  // index = token − 1
  std::vector<Record> records_;
  std::vector<std::uint64_t> pool_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> dedup_;
  std::vector<std::uint64_t> acc_words_;  // full-width merge scratch
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> unknown_tokens_{0};
  bool concurrent_ = false;        ///< set before the run goes multi-shard
  mutable std::mutex mutex_;       ///< guards registrations when concurrent
};

}  // namespace gridbox::agg
