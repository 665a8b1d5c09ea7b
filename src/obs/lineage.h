// Causal vote lineage: who learned what from whom.
//
// A LineageTracker reads the knowledge-gain, conclusion, finish and crash
// RunEvents of one run and reconstructs, per member, the dissemination tree
// behind its final estimate: each gain node points at the sender-side node
// it was decoded from, each phase conclusion records exactly the cells it
// merged, and a member's final estimate resolves to a result push or its
// last conclusion. Because the tracker replays the same first-received-wins
// / merge bookkeeping the protocols perform, the vote count it derives for
// every member — and hence the run's mean completeness — must equal the
// protocol's own `completeness_bp` *exactly*. That makes lineage an
// independent accounting next to the protocol's own measurement, and any
// divergence is recorded in errors().
//
// Its one feed is record(), called by the RunObserver it is armed on (one
// per one-shot run and one per service instance alike), which stamps each
// event with the run's clock. It costs nothing when not constructed, and is
// queryable offline via to_json() ("gridbox-lineage/1") — the input of
// tools/gridbox_explain.
//
// Two-stage design: during the run, events are only appended to a flat raw
// log (one 32-byte RunEvent each, no random access — the run pays a few
// nanoseconds per event). The forest, the per-member accounting, and the
// error checks are resolved lazily by replaying that log in order the first
// time any reader asks (completeness_bp / nodes / errors / to_json).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/hierarchy/hierarchy.h"
#include "src/obs/run_event.h"

namespace gridbox::obs {

class LineageTracker {
 public:
  struct Options {
    std::size_t group_size = 0;
  };

  /// What a lineage node records. Gains mirror GainKind; kConclude nodes are
  /// synthesized at on_phase_concluded and list the cells they merged.
  enum class NodeOp : std::uint8_t {
    kGainRemote = 0,
    kGainLocal = 1,
    kGainAdopted = 2,
    kGainResult = 3,
    kConclude = 4,
  };

  /// One node of the dissemination forest. For gains, (phase, index) is the
  /// knowledge cell and `parent` the sender-side node it resolves to (-1 for
  /// local roots). For conclusions, `merged` lists the gain nodes combined.
  struct Node {
    MemberId member;
    MemberId from;
    std::uint32_t phase = 0;
    std::uint32_t index = 0;
    std::uint32_t votes = 0;
    NodeOp op = NodeOp::kGainLocal;
    SimTime at = SimTime::zero();
    std::int64_t parent = -1;
    std::vector<std::int64_t> merged;
  };

  explicit LineageTracker(Options options);

  /// The kinds record() keeps.
  static constexpr RunEventKinds kReads =
      kind_bit(RunEventKind::kGain) | kind_bit(RunEventKind::kConclude) |
      kind_bit(RunEventKind::kFinish) | kind_bit(RunEventKind::kCrash);

  /// Appends an event of a kind in kReads to the raw log; every other kind
  /// is ignored. The hot path: one test and an amortized push_back.
  void record(const RunEvent& event) {
    if ((kReads & kind_bit(event.kind)) == 0) return;
    log_.push_back(event);
    finalized_ = false;
  }

  /// Mean completeness over surviving members, replicating measure_run's
  /// arithmetic operation for operation so the basis-point gauge matches
  /// bit for bit.
  [[nodiscard]] double mean_completeness() const;

  /// mean_completeness() in basis points, rounded exactly like the
  /// `completeness_bp` metrics gauge.
  [[nodiscard]] std::uint64_t completeness_bp() const;

  [[nodiscard]] std::size_t finished_count() const;
  [[nodiscard]] const std::vector<Node>& nodes() const;

  /// Accounting inconsistencies detected while resolving the event log
  /// (unresolvable senders, merge sums that do not add up, finish/carry
  /// mismatches). Empty on a healthy run — tests assert exactly that.
  [[nodiscard]] const std::vector<std::string>& errors() const;

  /// Captures the run's hierarchy (fanout, phase count, per-member grid-box
  /// addresses) so to_json() can emit them after the hierarchy is gone.
  /// Called by run_experiment; the hierarchy lives on its stack frame.
  void capture_hierarchy(const hierarchy::GridBoxHierarchy& hierarchy);

  /// Serializes the forest as a "gridbox-lineage/1" JSON document. The
  /// captured hierarchy (when present) contributes per-member grid-box
  /// addresses so offline queries can reason about phase groups.
  [[nodiscard]] std::string to_json() const;

 private:
  /// Both sides of one knowledge cell during replay. `held` is what occupies
  /// the cell (first-received-wins, mirroring the protocols); `exported` is
  /// what the member would *send* for it, which differs when a locally
  /// computed partial loses the cell race to a peer's (committee baseline).
  struct Cell {
    std::int32_t held = -1;
    std::int32_t exported = -1;
  };

  struct MemberState {
    /// Cell state. Phase-1 cells are sparse — a member only ever touches the
    /// cells of its own box, a K-sized island in a possibly 10^6-wide origin
    /// space — so they are kept as an index-sorted vector (binary search)
    /// rather than direct-indexed by origin id. Phase p >= 2 cells are
    /// direct-indexed by child slot (< K).
    std::vector<std::pair<std::uint32_t, Cell>> phase1;  ///< sorted by index
    std::vector<std::vector<Cell>> upper;  ///< [phase-2][index]
    std::int64_t carry = -1;   ///< latest conclusion / adoption
    std::int64_t result = -1;  ///< result push, if any
    std::int64_t final_node = -1;
    std::uint32_t final_votes = 0;
    bool finished = false;
    bool crashed = false;
  };

  /// The member's cell (phase, index), grown on demand.
  [[nodiscard]] static Cell& cell_at(MemberState& s, std::size_t phase,
                                     std::uint32_t index);
  /// Read-only lookup; nullptr when the member never touched the cell.
  [[nodiscard]] static const Cell* find_cell(const MemberState& s,
                                             std::size_t phase,
                                             std::uint32_t index);

  /// Replays the raw log into the forest + per-member accounting. Runs at
  /// most once per log generation; every reader funnels through this.
  void finalize() const;
  // finalize() helpers, operating on the mutable replay state.
  [[nodiscard]] MemberState& state_of(MemberId member) const;
  /// The node `sender` would provide for cell (phase, index), or -1.
  [[nodiscard]] std::int64_t resolve_sender(MemberId sender, std::size_t phase,
                                            std::uint32_t index) const;
  std::int64_t add_node(Node node) const;
  void replay_gain(const RunEvent& e) const;
  void replay_conclude(const RunEvent& e) const;
  void replay_finish(const RunEvent& e) const;
  void error(std::string what) const;

  Options options_;
  /// The raw log: the kReads events in run order, replayed by
  /// finalize() off the run's critical path (replay order equals event
  /// order, so the reconstruction is exact).
  std::vector<RunEvent> log_;

  // Replay products, rebuilt by finalize() when the log has grown.
  mutable bool finalized_ = false;
  mutable std::vector<MemberState> members_;
  mutable std::vector<Node> nodes_;
  mutable std::vector<std::string> errors_;
  mutable std::size_t finished_count_ = 0;

  // Hierarchy snapshot (capture_hierarchy). Addresses are flattened into a
  // single digit array with a fixed stride: one allocation instead of one
  // vector per member — capture runs inside the instrumented window.
  bool have_hierarchy_ = false;
  std::uint32_t fanout_ = 0;
  std::size_t num_phases_ = 0;
  std::size_t digit_count_ = 0;  ///< digits per address (stride)
  std::vector<std::uint32_t> address_digits_;  ///< group_size × digit_count
};

}  // namespace gridbox::obs
