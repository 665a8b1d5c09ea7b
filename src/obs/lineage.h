// Causal vote lineage: who learned what from whom.
//
// A LineageTracker consumes the rich knowledge-gain events emitted by every
// protocol (GossipTrace::on_knowledge_gained) and reconstructs, per member,
// the dissemination tree behind its final estimate: each gain node points at
// the sender-side node it was decoded from, each phase conclusion records
// exactly the cells it merged, and a member's final estimate resolves to a
// result push or its last conclusion. Because the tracker replays the same
// first-received-wins / merge bookkeeping the protocols perform, the vote
// count it derives for every member — and hence the run's mean completeness
// — must equal the protocol's own `completeness_bp` *exactly*. That makes
// lineage an independent accounting next to the protocol's own
// measurement, and any divergence is recorded in errors().
//
// The tracker is pull-fed by RunObserver (never chained as `next`), costs
// nothing when not constructed, and is queryable offline via to_json()
// ("gridbox-lineage/1") — the input of tools/gridbox_explain.
//
// Two-stage design: during the run, events are only appended to a flat raw
// log (32 bytes each, no random access — the run pays a few nanoseconds per
// event). The forest, the per-member accounting, and the error checks are
// resolved lazily by replaying that log in order the first time any reader
// asks (completeness_bp / nodes / errors / to_json).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/hierarchy/hierarchy.h"
#include "src/protocols/gossip/trace.h"
#include "src/sim/simulator.h"

namespace gridbox::obs {

class LineageTracker final : public protocols::gossip::GossipTrace {
 public:
  struct Options {
    std::size_t group_size = 0;
    /// Clock for gain timestamps (nullable: times come out as 0). Callers
    /// that construct the tracker before the simulator exists (the CLI)
    /// leave this null; run_experiment installs the run's clock via
    /// set_clock().
    const sim::Simulator* simulator = nullptr;
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

  // GossipTrace (fed by RunObserver).
  void on_phase_entered(MemberId member, std::size_t phase) override;
  void on_knowledge_gained(MemberId member, std::size_t phase,
                           std::uint32_t index, MemberId from,
                           std::uint32_t votes,
                           protocols::gossip::GainKind kind) override;
  void on_phase_concluded(MemberId member, std::size_t phase,
                          protocols::gossip::PhaseEnd how,
                          std::uint32_t votes) override;
  void on_finished(MemberId member, std::uint32_t votes) override;

  /// Membership event (no GossipTrace hook exists for it).
  void on_crash(MemberId member);

  /// Installs (or clears) the clock used to stamp nodes. Only valid to
  /// change between runs; the clock must outlive every event fed while set.
  void set_clock(const sim::Simulator* simulator) {
    options_.simulator = simulator;
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
  /// One raw event, recorded on the hot path. 32 bytes, append-only: the
  /// per-event cost during the run is filling this struct and one amortized
  /// push_back — no tree building, no per-member state, no random access.
  /// The forest is resolved from the log lazily (finalize()), off the run's
  /// critical path, by replaying events in order: replay order equals event
  /// order, so the reconstruction is exact.
  struct RawEvent {
    enum class Type : std::uint8_t { kGain, kConclude, kFinish, kCrash };
    Type type = Type::kGain;
    std::uint8_t aux = 0;  ///< GainKind (kGain) / PhaseEnd (kConclude)
    std::uint32_t member = 0;
    std::uint32_t from = 0;
    std::uint32_t phase = 0;
    std::uint32_t index = 0;
    std::uint32_t votes = 0;
    SimTime at = SimTime::zero();
  };

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

  [[nodiscard]] SimTime now() const;

  /// Replays the raw log into the forest + per-member accounting. Runs at
  /// most once per log generation; every reader funnels through this.
  void finalize() const;
  // finalize() helpers, operating on the mutable replay state.
  [[nodiscard]] MemberState& state_of(MemberId member) const;
  /// The node `sender` would provide for cell (phase, index), or -1.
  [[nodiscard]] std::int64_t resolve_sender(MemberId sender, std::size_t phase,
                                            std::uint32_t index) const;
  std::int64_t add_node(Node node) const;
  void replay_gain(const RawEvent& e) const;
  void replay_conclude(const RawEvent& e) const;
  void replay_finish(const RawEvent& e) const;
  void error(std::string what) const;

  Options options_;
  std::vector<RawEvent> log_;  ///< hot-path append target

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
