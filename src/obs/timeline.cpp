#include "src/obs/timeline.h"

#include <algorithm>

#include "src/obs/json.h"

namespace gridbox::obs {

void PhaseTimeline::merge(const PhaseTimeline& other) {
  if (other.phases.size() > phases.size()) {
    phases.resize(other.phases.size());
  }
  for (std::size_t i = 0; i < other.phases.size(); ++i) {
    PhaseSpan& mine = phases[i];
    const PhaseSpan& theirs = other.phases[i];
    mine.entered += theirs.entered;
    mine.concluded += theirs.concluded;
    mine.msgs_sent += theirs.msgs_sent;
    mine.rounds += theirs.rounds;
    mine.votes_concluded_sum += theirs.votes_concluded_sum;
    if (theirs.any_entered) {
      mine.first_entered = mine.any_entered
                               ? std::min(mine.first_entered,
                                          theirs.first_entered)
                               : theirs.first_entered;
      mine.any_entered = true;
    }
    mine.last_concluded = std::max(mine.last_concluded, theirs.last_concluded);
  }
}

std::string PhaseTimeline::to_json() const {
  JsonWriter w;
  w.begin_array();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpan& span = phases[i];
    if (span.entered == 0 && span.concluded == 0 && span.msgs_sent == 0 &&
        span.rounds == 0) {
      continue;
    }
    w.begin_object();
    w.key("phase").value(static_cast<std::uint64_t>(i));
    w.key("entered").value(span.entered);
    w.key("concluded").value(span.concluded);
    w.key("msgs_sent").value(span.msgs_sent);
    w.key("rounds").value(span.rounds);
    w.key("votes_concluded_sum").value(span.votes_concluded_sum);
    if (span.any_entered) {
      const auto start = span.first_entered.ticks();
      const auto end = span.last_concluded.ticks();
      w.key("sim_start").value(static_cast<std::int64_t>(start));
      w.key("sim_end").value(static_cast<std::int64_t>(end));
      w.key("sim_us").value(
          static_cast<std::int64_t>(end > start ? end - start : 0));
    }
    w.end_object();
  }
  w.end_array();
  return w.take();
}

}  // namespace gridbox::obs
