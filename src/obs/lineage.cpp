#include "src/obs/lineage.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/ensure.h"
#include "src/obs/json.h"
#include "src/protocols/gossip/trace.h"

namespace gridbox::obs {

namespace {

const char* op_name(LineageTracker::NodeOp op) {
  using NodeOp = LineageTracker::NodeOp;
  switch (op) {
    case NodeOp::kGainRemote:
      return "remote";
    case NodeOp::kGainLocal:
      return "local";
    case NodeOp::kGainAdopted:
      return "adopted";
    case NodeOp::kGainResult:
      return "result";
    case NodeOp::kConclude:
      return "conclude";
  }
  return "?";
}

}  // namespace

LineageTracker::LineageTracker(Options options) : options_(options) {
  expects(options_.group_size > 0, "lineage tracker needs a group size");
  // A member produces roughly |box| + K·(phases−1) gains plus a conclusion
  // per phase and a finish; pre-size the log so a typical run never
  // reallocates mid-flight. resize-then-clear instead of reserve: it first-
  // touches the pages here, in setup, so the run itself never stalls on
  // page faults for the log.
  log_.resize(options_.group_size * 24);
  log_.clear();
}

LineageTracker::MemberState& LineageTracker::state_of(MemberId member) const {
  const std::size_t i = member.value();
  if (i >= members_.size()) members_.resize(i + 1);
  return members_[i];
}

LineageTracker::Cell& LineageTracker::cell_at(MemberState& s,
                                              std::size_t phase,
                                              std::uint32_t index) {
  if (phase == 1) {
    const auto it = std::lower_bound(
        s.phase1.begin(), s.phase1.end(), index,
        [](const auto& entry, std::uint32_t i) { return entry.first < i; });
    if (it != s.phase1.end() && it->first == index) return it->second;
    return s.phase1.insert(it, {index, Cell{}})->second;
  }
  if (phase - 2 >= s.upper.size()) s.upper.resize(phase - 1);
  std::vector<Cell>& row = s.upper[phase - 2];
  if (index >= row.size()) row.resize(index + 1);
  return row[index];
}

const LineageTracker::Cell* LineageTracker::find_cell(const MemberState& s,
                                                      std::size_t phase,
                                                      std::uint32_t index) {
  if (phase == 1) {
    const auto it = std::lower_bound(
        s.phase1.begin(), s.phase1.end(), index,
        [](const auto& entry, std::uint32_t i) { return entry.first < i; });
    return it != s.phase1.end() && it->first == index ? &it->second : nullptr;
  }
  if (phase - 2 >= s.upper.size()) return nullptr;
  const std::vector<Cell>& row = s.upper[phase - 2];
  return index < row.size() ? &row[index] : nullptr;
}

std::int64_t LineageTracker::add_node(Node node) const {
  nodes_.push_back(std::move(node));
  return static_cast<std::int64_t>(nodes_.size() - 1);
}

void LineageTracker::error(std::string what) const {
  errors_.push_back(std::move(what));
}

std::int64_t LineageTracker::resolve_sender(MemberId sender, std::size_t phase,
                                            std::uint32_t index) const {
  const Cell* cell = find_cell(state_of(sender), phase, index);
  if (cell == nullptr) return -1;
  // The export wins over the held cell: what a member *sends* for a cell can
  // be its own computed partial even when a peer's copy occupies the cell.
  if (cell->exported >= 0) return cell->exported;
  return cell->held;
}

// --- Replay: the original incremental bookkeeping, run over the log. ------

void LineageTracker::replay_gain(const RunEvent& e) const {
  using protocols::gossip::GainKind;
  const MemberId member(e.member);
  const MemberId from(e.peer);
  const std::size_t phase = e.phase;
  const std::uint32_t index = e.value;
  const std::uint32_t votes = e.votes;
  const auto kind = static_cast<GainKind>(e.aux);
  MemberState& s = state_of(member);

  Node node;
  node.member = member;
  node.from = from;
  node.phase = static_cast<std::uint32_t>(phase);
  node.index = index;
  node.votes = votes;
  node.at = e.at;

  switch (kind) {
    case GainKind::kLocal: {
      node.op = NodeOp::kGainLocal;
      // Phase-1 locals are leaves (the member's own vote); later locals seed
      // the member's child slot from its carry (the previous conclusion).
      if (phase >= 2) node.parent = s.carry;
      const std::int64_t id = add_node(std::move(node));
      Cell& cell = cell_at(s, phase, index);
      cell.exported = static_cast<std::int32_t>(id);  // what this member sends
      if (cell.held < 0) {
        cell.held = static_cast<std::int32_t>(id);    // first occupant wins
      }
      break;
    }
    case GainKind::kRemote: {
      node.op = NodeOp::kGainRemote;
      node.parent = resolve_sender(from, phase, index);
      if (node.parent < 0) {
        error("M" + std::to_string(member.value()) + " gained (" +
              std::to_string(phase) + "," + std::to_string(index) +
              ") from M" + std::to_string(from.value()) +
              " but the sender holds no such cell");
      }
      const std::int64_t id = add_node(std::move(node));
      Cell& cell = cell_at(s, phase, index);
      if (cell.held >= 0) {
        error("M" + std::to_string(member.value()) + " gained cell (" +
              std::to_string(phase) + "," + std::to_string(index) +
              ") twice");
      } else {
        cell.held = static_cast<std::int32_t>(id);
      }
      break;
    }
    case GainKind::kAdopted: {
      node.op = NodeOp::kGainAdopted;
      node.parent = resolve_sender(from, phase, index);
      if (node.parent < 0) {
        error("M" + std::to_string(member.value()) + " adopted (" +
              std::to_string(phase) + "," + std::to_string(index) +
              ") from M" + std::to_string(from.value()) +
              " but the sender holds no such cell");
      }
      // Adoption replaces the member's carry wholesale; the cell itself is
      // (re)seeded by the kLocal event of the phase entered next.
      s.carry = add_node(std::move(node));
      break;
    }
    case GainKind::kResult: {
      node.op = NodeOp::kGainResult;
      if (from == member) {
        node.parent = s.carry;  // locally computed from the last conclusion
      } else {
        node.parent = state_of(from).result;
        if (node.parent < 0) {
          error("M" + std::to_string(member.value()) +
                " received a result from M" + std::to_string(from.value()) +
                " which has none");
        }
      }
      s.result = add_node(std::move(node));
      break;
    }
  }
}

void LineageTracker::replay_conclude(const RunEvent& e) const {
  const MemberId member(e.member);
  const std::size_t phase = e.phase;
  const std::uint32_t votes = e.votes;
  const auto how = static_cast<protocols::gossip::PhaseEnd>(e.aux);
  MemberState& s = state_of(member);
  if (how == protocols::gossip::PhaseEnd::kAdopted) {
    // The adoption gain already became the carry; the conclusion is just the
    // protocol reporting it. Cross-check the vote count.
    if (s.carry < 0) {
      error("M" + std::to_string(member.value()) +
            " concluded by adoption with no adopted value");
    } else if (nodes_[static_cast<std::size_t>(s.carry)].votes != votes) {
      error("M" + std::to_string(member.value()) + " adopted " +
            std::to_string(nodes_[static_cast<std::size_t>(s.carry)].votes) +
            " votes but concluded " + std::to_string(votes));
    }
    return;
  }

  Node node;
  node.member = member;
  node.from = member;
  node.phase = static_cast<std::uint32_t>(phase);
  node.votes = votes;
  node.op = NodeOp::kConclude;
  node.at = e.at;
  std::uint64_t sum = 0;
  const auto merge_cell = [this, &node, &sum](const Cell& cell) {
    if (cell.held < 0) return;
    node.merged.push_back(cell.held);
    sum += nodes_[static_cast<std::size_t>(cell.held)].votes;
  };
  if (phase == 1) {
    for (const auto& [index, cell] : s.phase1) {
      (void)index;
      merge_cell(cell);
    }
  } else if (phase - 2 < s.upper.size()) {
    for (const Cell& cell : s.upper[phase - 2]) merge_cell(cell);
  }
  // Determinism: cells are index-ordered, not arrival-ordered; order the
  // merge list by node id.
  std::sort(node.merged.begin(), node.merged.end());
  if (sum != votes) {
    error("M" + std::to_string(member.value()) + " concluded phase " +
          std::to_string(phase) + " with " + std::to_string(votes) +
          " votes but its cells sum to " + std::to_string(sum));
  }
  s.carry = add_node(std::move(node));
}

void LineageTracker::replay_finish(const RunEvent& e) const {
  const MemberId member(e.member);
  const std::uint32_t votes = e.votes;
  MemberState& s = state_of(member);
  const std::int64_t final_node = s.result >= 0 ? s.result : s.carry;
  if (final_node < 0) {
    error("M" + std::to_string(member.value()) +
          " finished with no lineage for its estimate");
  } else if (nodes_[static_cast<std::size_t>(final_node)].votes != votes) {
    error("M" + std::to_string(member.value()) + " finished with " +
          std::to_string(votes) + " votes but its lineage carries " +
          std::to_string(
              nodes_[static_cast<std::size_t>(final_node)].votes));
  }
  if (s.finished) {
    error("M" + std::to_string(member.value()) + " finished twice");
  } else {
    ++finished_count_;
  }
  s.finished = true;
  s.final_node = final_node;
  s.final_votes = votes;
}

void LineageTracker::finalize() const {
  if (finalized_) return;
  members_.clear();
  members_.resize(options_.group_size);
  nodes_.clear();
  nodes_.reserve(log_.size());
  errors_.clear();
  finished_count_ = 0;
  for (const RunEvent& e : log_) {
    switch (e.kind) {
      case RunEventKind::kGain:
        replay_gain(e);
        break;
      case RunEventKind::kConclude:
        replay_conclude(e);
        break;
      case RunEventKind::kFinish:
        replay_finish(e);
        break;
      case RunEventKind::kCrash:
        state_of(MemberId(e.member)).crashed = true;
        break;
      default:
        break;  // record() keeps no other kind
    }
  }
  finalized_ = true;
}

std::size_t LineageTracker::finished_count() const {
  finalize();
  return finished_count_;
}

const std::vector<LineageTracker::Node>& LineageTracker::nodes() const {
  finalize();
  return nodes_;
}

const std::vector<std::string>& LineageTracker::errors() const {
  finalize();
  return errors_;
}

double LineageTracker::mean_completeness() const {
  finalize();
  // Exactly measure_run's loop: member order, crashed members skipped,
  // unfinished survivors contribute 0, one division at the end.
  const auto n = static_cast<double>(options_.group_size);
  double completeness_sum = 0.0;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < options_.group_size && i < members_.size();
       ++i) {
    const MemberState& s = members_[i];
    if (s.crashed) continue;
    ++survivors;
    double completeness = 0.0;
    if (s.finished) {
      completeness = static_cast<double>(s.final_votes) / n;
    }
    completeness_sum += completeness;
  }
  if (survivors == 0) return 0.0;
  return completeness_sum / static_cast<double>(survivors);
}

std::uint64_t LineageTracker::completeness_bp() const {
  return static_cast<std::uint64_t>(mean_completeness() * 10'000.0 + 0.5);
}

void LineageTracker::capture_hierarchy(
    const hierarchy::GridBoxHierarchy& hierarchy) {
  have_hierarchy_ = true;
  fanout_ = hierarchy.fanout();
  num_phases_ = hierarchy.num_phases();
  digit_count_ = num_phases_ > 0 ? num_phases_ - 1 : 0;
  address_digits_.assign(options_.group_size * digit_count_, 0);
  for (std::size_t i = 0; i < options_.group_size; ++i) {
    const hierarchy::GridBoxAddress addr =
        hierarchy.address_of(MemberId(static_cast<MemberId::underlying>(i)));
    for (std::size_t d = 0; d < digit_count_ && d < addr.digit_count(); ++d) {
      address_digits_[i * digit_count_ + d] = addr.digit(d);
    }
  }
}

std::string LineageTracker::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("gridbox-lineage/1");
  w.key("group_size");
  w.value(static_cast<std::uint64_t>(options_.group_size));
  if (have_hierarchy_) {
    w.key("fanout");
    w.value(static_cast<std::uint64_t>(fanout_));
    w.key("num_phases");
    w.value(static_cast<std::uint64_t>(num_phases_));
  }
  w.key("completeness_bp");
  w.value(completeness_bp());

  w.key("members");
  w.begin_array();
  for (std::size_t i = 0; i < options_.group_size; ++i) {
    const MemberState& s = members_[i];
    w.begin_object();
    w.key("m");
    w.value(static_cast<std::uint64_t>(i));
    if (have_hierarchy_ && (i + 1) * digit_count_ <= address_digits_.size()) {
      w.key("addr");
      w.begin_array();
      for (std::size_t d = 0; d < digit_count_; ++d) {
        w.value(
            static_cast<std::uint64_t>(address_digits_[i * digit_count_ + d]));
      }
      w.end_array();
    }
    w.key("finished");
    w.value(static_cast<std::uint64_t>(s.finished ? 1 : 0));
    w.key("crashed");
    w.value(static_cast<std::uint64_t>(s.crashed ? 1 : 0));
    w.key("votes");
    w.value(static_cast<std::uint64_t>(s.final_votes));
    w.key("final");
    w.value(static_cast<std::int64_t>(s.final_node));
    w.end_object();
  }
  w.end_array();

  w.key("nodes");
  w.begin_array();
  for (const Node& node : nodes_) {
    w.begin_object();
    w.key("m");
    w.value(static_cast<std::uint64_t>(node.member.value()));
    w.key("op");
    w.value(op_name(node.op));
    w.key("phase");
    w.value(static_cast<std::uint64_t>(node.phase));
    w.key("index");
    w.value(static_cast<std::uint64_t>(node.index));
    w.key("from");
    w.value(static_cast<std::uint64_t>(node.from.value()));
    w.key("votes");
    w.value(static_cast<std::uint64_t>(node.votes));
    w.key("t");
    w.value(static_cast<std::uint64_t>(node.at.ticks()));
    w.key("parent");
    w.value(static_cast<std::int64_t>(node.parent));
    if (!node.merged.empty()) {
      w.key("merged");
      w.begin_array();
      for (const std::int64_t id : node.merged) {
        w.value(static_cast<std::int64_t>(id));
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();

  w.key("errors");
  w.begin_array();
  for (const std::string& e : errors_) w.value(e);
  w.end_array();

  w.end_object();
  return w.take();
}

}  // namespace gridbox::obs
