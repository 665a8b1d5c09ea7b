#include "src/net/chaos.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <memory>
#include <sstream>
#include <utility>

#include "src/common/ensure.h"

namespace gridbox::net {

namespace {

// Independent decision-stream tags (see header: separated streams give the
// metamorphic test suite exact invariances under spec composition).
constexpr std::uint64_t kDropStream = 0x01;
constexpr std::uint64_t kJitterStream = 0x02;
constexpr std::uint64_t kDupStream = 0x03;

[[nodiscard]] std::uint64_t link_key(MemberId source, MemberId destination) {
  return (static_cast<std::uint64_t>(source.value()) << 32) |
         destination.value();
}

// ---- parsing helpers --------------------------------------------------------

struct SpecError {
  std::size_t line;
  std::string what;
};

[[noreturn]] void fail_at(std::size_t line, const std::string& what) {
  throw PreconditionError("chaos spec line " + std::to_string(line) + ": " +
                          what);
}

[[nodiscard]] std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token.front() == '#') break;  // trailing comment
    tokens.push_back(token);
  }
  return tokens;
}

[[nodiscard]] double parse_probability(const std::string& text,
                                       std::size_t line) {
  std::size_t used = 0;
  double p = 0.0;
  try {
    p = std::stod(text, &used);
  } catch (const std::exception&) {
    fail_at(line, "not a probability: " + text);
  }
  if (used != text.size() || p < 0.0 || p > 1.0) {
    fail_at(line, "probability out of [0,1]: " + text);
  }
  return p;
}

[[nodiscard]] SimTime parse_time(const std::string& text, std::size_t line) {
  std::size_t used = 0;
  long long ticks = 0;
  try {
    ticks = std::stoll(text, &used);
  } catch (const std::exception&) {
    fail_at(line, "not a time: " + text);
  }
  if (ticks < 0) fail_at(line, "time must be non-negative: " + text);
  const std::string suffix = text.substr(used);
  if (suffix.empty() || suffix == "us") return SimTime::micros(ticks);
  if (suffix == "ms") return SimTime::millis(ticks);
  if (suffix == "s") return SimTime::seconds(ticks);
  fail_at(line, "unknown time suffix: " + text);
}

/// "FROM..TO" -> pair of times with FROM <= TO.
[[nodiscard]] std::pair<SimTime, SimTime> parse_window(const std::string& text,
                                                       std::size_t line) {
  const std::size_t dots = text.find("..");
  if (dots == std::string::npos) fail_at(line, "expected FROM..TO: " + text);
  const SimTime from = parse_time(text.substr(0, dots), line);
  const SimTime to = parse_time(text.substr(dots + 2), line);
  if (to < from) fail_at(line, "window ends before it starts: " + text);
  return {from, to};
}

[[nodiscard]] MemberId parse_member(const std::string& text,
                                    std::size_t line) {
  if (text.size() < 2 || text.front() != 'M') {
    fail_at(line, "expected a member id like M5: " + text);
  }
  std::size_t used = 0;
  unsigned long v = 0;
  try {
    v = std::stoul(text.substr(1), &used);
  } catch (const std::exception&) {
    fail_at(line, "expected a member id like M5: " + text);
  }
  if (used != text.size() - 1) {
    fail_at(line, "expected a member id like M5: " + text);
  }
  return MemberId{static_cast<MemberId::underlying>(v)};
}

/// "key=value" -> value, enforcing the expected key.
[[nodiscard]] std::string expect_kv(const std::string& token,
                                    const std::string& key, std::size_t line) {
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) != 0) {
    fail_at(line, "expected " + key + "=..., got: " + token);
  }
  return token.substr(prefix.size());
}

[[nodiscard]] std::string time_text(SimTime t) {
  return std::to_string(t.ticks()) + "us";
}

[[nodiscard]] std::string prob_text(double p) {
  // Shortest exact representation (std::to_chars), so parse(to_text())
  // round-trips bit-for-bit even for machine-generated probabilities.
  std::array<char, 32> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), p);
  ensures(ec == std::errc{}, "probability formatting failed");
  return std::string(buf.data(), end);
}

}  // namespace

ChaosSpec ChaosSpec::parse(const std::string& text) {
  ChaosSpec spec;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::vector<std::string> t = tokenize(raw);
    if (t.empty()) continue;
    const std::string& directive = t[0];
    const auto want = [&](std::size_t n) {
      if (t.size() != n + 1) {
        fail_at(line_no, directive + ": expected " + std::to_string(n) +
                             " argument(s), got " + std::to_string(t.size() - 1));
      }
    };
    if (directive == "loss") {
      want(1);
      spec.base_loss = parse_probability(t[1], line_no);
    } else if (directive == "burst") {
      want(5);
      BurstEpoch b;
      std::tie(b.from, b.to) = parse_window(t[1], line_no);
      b.good_loss = parse_probability(expect_kv(t[2], "good", line_no), line_no);
      b.bad_loss = parse_probability(expect_kv(t[3], "bad", line_no), line_no);
      b.go_bad = parse_probability(expect_kv(t[4], "go-bad", line_no), line_no);
      b.go_good =
          parse_probability(expect_kv(t[5], "go-good", line_no), line_no);
      spec.bursts.push_back(b);
    } else if (directive == "link") {
      want(2);
      const std::size_t arrow = t[1].find("->");
      if (arrow == std::string::npos) {
        fail_at(line_no, "expected MA->MB: " + t[1]);
      }
      LinkLoss l;
      l.source = parse_member(t[1].substr(0, arrow), line_no);
      l.destination = parse_member(t[1].substr(arrow + 2), line_no);
      l.loss = parse_probability(t[2], line_no);
      spec.links.push_back(l);
    } else if (directive == "jitter") {
      want(2);
      spec.jitter.probability =
          parse_probability(expect_kv(t[1], "p", line_no), line_no);
      std::tie(spec.jitter.lo, spec.jitter.hi) = parse_window(t[2], line_no);
    } else if (directive == "dup") {
      want(3);
      spec.dup.probability =
          parse_probability(expect_kv(t[1], "p", line_no), line_no);
      const std::string extra = expect_kv(t[2], "extra", line_no);
      try {
        spec.dup.extra = static_cast<std::uint32_t>(std::stoul(extra));
      } catch (const std::exception&) {
        fail_at(line_no, "dup: extra must be a count: " + extra);
      }
      if (spec.dup.extra == 0) fail_at(line_no, "dup: extra must be >= 1");
      spec.dup.spread = parse_time(expect_kv(t[3], "spread", line_no), line_no);
    } else if (directive == "partition") {
      if (t.size() != 4 && t.size() != 5) {
        fail_at(line_no, "partition: expected 3 or 4 arguments");
      }
      PartitionEpoch p;
      std::tie(p.from, p.to) = parse_window(t[1], line_no);
      const std::string boundary = expect_kv(t[2], "boundary", line_no);
      if (boundary == "half") {
        p.boundary_is_half = true;
      } else {
        p.boundary_is_half = false;
        try {
          p.boundary =
              static_cast<MemberId::underlying>(std::stoul(boundary));
        } catch (const std::exception&) {
          fail_at(line_no, "partition: bad boundary: " + boundary);
        }
      }
      p.cross_loss =
          parse_probability(expect_kv(t[3], "cross", line_no), line_no);
      if (t.size() == 5) {
        p.has_within = true;
        p.within_loss =
            parse_probability(expect_kv(t[4], "within", line_no), line_no);
      }
      spec.partitions.push_back(p);
    } else if (directive == "crash") {
      want(2);
      CrashEvent c;
      c.member = parse_member(t[1], line_no);
      c.at = parse_time(expect_kv(t[2], "at", line_no), line_no);
      spec.crashes.push_back(c);
    } else if (directive == "join" || directive == "recover") {
      want(2);
      ChurnEvent e;
      e.member = parse_member(t[1], line_no);
      e.at = parse_time(expect_kv(t[2], "at", line_no), line_no);
      (directive == "join" ? spec.joins : spec.recovers).push_back(e);
    } else {
      fail_at(line_no, "unknown directive: " + directive);
    }
  }
  return spec;
}

std::string ChaosSpec::to_text() const {
  std::ostringstream out;
  if (base_loss.has_value()) out << "loss " << prob_text(*base_loss) << "\n";
  for (const BurstEpoch& b : bursts) {
    out << "burst " << time_text(b.from) << ".." << time_text(b.to)
        << " good=" << prob_text(b.good_loss) << " bad=" << prob_text(b.bad_loss)
        << " go-bad=" << prob_text(b.go_bad)
        << " go-good=" << prob_text(b.go_good) << "\n";
  }
  for (const LinkLoss& l : links) {
    out << "link M" << l.source.value() << "->M" << l.destination.value()
        << " " << prob_text(l.loss) << "\n";
  }
  if (jitter.probability > 0.0) {
    out << "jitter p=" << prob_text(jitter.probability) << " "
        << time_text(jitter.lo) << ".." << time_text(jitter.hi) << "\n";
  }
  if (dup.probability > 0.0) {
    out << "dup p=" << prob_text(dup.probability) << " extra=" << dup.extra
        << " spread=" << time_text(dup.spread) << "\n";
  }
  for (const PartitionEpoch& p : partitions) {
    out << "partition " << time_text(p.from) << ".." << time_text(p.to)
        << " boundary=";
    if (p.boundary_is_half) {
      out << "half";
    } else {
      out << p.boundary;
    }
    out << " cross=" << prob_text(p.cross_loss);
    if (p.has_within) out << " within=" << prob_text(p.within_loss);
    out << "\n";
  }
  for (const CrashEvent& c : crashes) {
    out << "crash M" << c.member.value() << " at=" << time_text(c.at) << "\n";
  }
  for (const ChurnEvent& e : joins) {
    out << "join M" << e.member.value() << " at=" << time_text(e.at) << "\n";
  }
  for (const ChurnEvent& e : recovers) {
    out << "recover M" << e.member.value() << " at=" << time_text(e.at)
        << "\n";
  }
  return out.str();
}

bool ChaosSpec::affects_network() const {
  return base_loss.has_value() || !bursts.empty() || !links.empty() ||
         jitter.probability > 0.0 || dup.probability > 0.0 ||
         !partitions.empty();
}

bool ChaosSpec::has_churn() const { return !joins.empty() || !recovers.empty(); }

bool ChaosSpec::empty() const {
  return !affects_network() && crashes.empty() && !has_churn();
}

ChaosSpec random_chaos_spec(Rng& rng, std::size_t group_size,
                            SimTime horizon) {
  expects(group_size >= 2, "need at least two members");
  expects(horizon.ticks() > 0, "need a positive horizon");
  ChaosSpec spec;
  const auto random_time = [&rng, horizon]() {
    return SimTime{static_cast<SimTime::underlying>(rng.uniform_int(
        0, static_cast<std::uint64_t>(horizon.ticks())))};
  };
  const auto random_window = [&]() {
    SimTime a = random_time();
    SimTime b = random_time();
    if (b < a) std::swap(a, b);
    return std::pair{a, b};
  };
  if (rng.bernoulli(0.7)) spec.base_loss = rng.uniform() * 0.4;
  const std::size_t bursts = rng.uniform_int(0, 2);
  for (std::size_t i = 0; i < bursts; ++i) {
    BurstEpoch b;
    std::tie(b.from, b.to) = random_window();
    b.good_loss = rng.uniform() * 0.1;
    b.bad_loss = 0.5 + rng.uniform() * 0.5;
    b.go_bad = rng.uniform() * 0.3;
    b.go_good = rng.uniform() * 0.5;
    spec.bursts.push_back(b);
  }
  const std::size_t links = rng.uniform_int(0, 3);
  for (std::size_t i = 0; i < links; ++i) {
    LinkLoss l;
    l.source = MemberId{
        static_cast<MemberId::underlying>(rng.index(group_size))};
    l.destination = MemberId{
        static_cast<MemberId::underlying>(rng.index(group_size))};
    l.loss = rng.bernoulli(0.5) ? 1.0 : rng.uniform();
    spec.links.push_back(l);
  }
  if (rng.bernoulli(0.5)) {
    spec.jitter.probability = rng.uniform();
    spec.jitter.lo = SimTime::zero();
    spec.jitter.hi = SimTime{static_cast<SimTime::underlying>(
        rng.uniform_int(1, static_cast<std::uint64_t>(horizon.ticks() / 8)))};
  }
  if (rng.bernoulli(0.5)) {
    spec.dup.probability = rng.uniform();
    spec.dup.extra = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
    spec.dup.spread = SimTime{static_cast<SimTime::underlying>(
        rng.uniform_int(0, static_cast<std::uint64_t>(horizon.ticks() / 8)))};
  }
  if (rng.bernoulli(0.4)) {
    PartitionEpoch p;
    std::tie(p.from, p.to) = random_window();
    if (rng.bernoulli(0.5)) {
      p.boundary_is_half = true;
    } else {
      p.boundary_is_half = false;
      p.boundary = static_cast<MemberId::underlying>(
          rng.uniform_int(1, group_size - 1));
    }
    p.cross_loss = 0.5 + rng.uniform() * 0.5;
    if (rng.bernoulli(0.5)) {
      p.has_within = true;
      p.within_loss = rng.uniform() * 0.3;
    }
    spec.partitions.push_back(p);
  }
  const std::size_t crashes = rng.uniform_int(0, 3);
  for (std::size_t i = 0; i < crashes; ++i) {
    CrashEvent c;
    c.member = MemberId{
        static_cast<MemberId::underlying>(rng.index(group_size))};
    c.at = random_time();
    spec.crashes.push_back(c);
  }
  return spec;
}

ChaosSchedule::ChaosSchedule(ChaosSpec spec, FaultModel base,
                             std::size_t group_size, Rng rng)
    : spec_(std::move(spec)),
      base_(base),
      group_size_(group_size),
      drop_rng_(rng.derive(kDropStream)),
      jitter_rng_(rng.derive(kJitterStream)),
      dup_rng_(rng.derive(kDupStream)),
      burst_bad_(spec_.bursts.size(), false),
      burst_active_(spec_.bursts.size(), false) {
  expects(group_size_ >= 1, "group size required to resolve boundaries");
  if (spec_.base_loss.has_value()) {
    base_ = FaultModel::iid(*spec_.base_loss);
  }
  for (const LinkLoss& l : spec_.links) {
    link_loss_[link_key(l.source, l.destination)] = l.loss;
  }
}

void ChaosSchedule::bind_clock(std::function<SimTime()> clock) {
  clock_ = std::move(clock);
}

bool ChaosSchedule::decide_drop(MemberId source, MemberId destination,
                                SimTime now) {
  // Per-link overrides claim the message outright (asymmetric by design).
  const auto link = link_loss_.find(link_key(source, destination));
  if (link != link_loss_.end()) return drop_rng_.bernoulli(link->second);

  // Partition epochs: cross-side traffic is claimed; same-side traffic is
  // claimed only when the epoch scripts a within-loss.
  for (const PartitionEpoch& p : spec_.partitions) {
    if (now < p.from || now >= p.to) continue;
    const MemberId::underlying boundary =
        p.boundary_is_half
            ? static_cast<MemberId::underlying>(group_size_ / 2)
            : p.boundary;
    const bool cross = (source.value() < boundary) !=
                       (destination.value() < boundary);
    if (cross) return drop_rng_.bernoulli(p.cross_loss);
    if (p.has_within) return drop_rng_.bernoulli(p.within_loss);
  }

  // Gilbert–Elliott bursts: the chain resets to good at each epoch entry and
  // advances once per consulted message while active.
  for (std::size_t i = 0; i < spec_.bursts.size(); ++i) {
    const BurstEpoch& b = spec_.bursts[i];
    const bool active = now >= b.from && now < b.to;
    if (!active) {
      burst_active_[i] = false;
      continue;
    }
    if (!burst_active_[i]) {
      burst_active_[i] = true;
      burst_bad_[i] = false;
    }
    const bool drop =
        drop_rng_.bernoulli(burst_bad_[i] ? b.bad_loss : b.good_loss);
    if (burst_bad_[i]) {
      if (drop_rng_.bernoulli(b.go_good)) burst_bad_[i] = false;
    } else {
      if (drop_rng_.bernoulli(b.go_bad)) burst_bad_[i] = true;
    }
    return drop;
  }

  return base_.drops(source, destination, drop_rng_);
}

ChaosDecision ChaosSchedule::on_send(MemberId source, MemberId destination) {
  ensures(static_cast<bool>(clock_), "chaos schedule used before bind_clock");
  const SimTime now = clock_();
  ChaosDecision decision;
  decision.drop = decide_drop(source, destination, now);
  if (decision.drop) return decision;
  if (spec_.jitter.probability > 0.0 &&
      jitter_rng_.bernoulli(spec_.jitter.probability)) {
    decision.extra_delay = SimTime{static_cast<SimTime::underlying>(
        jitter_rng_.uniform_int(
            static_cast<std::uint64_t>(spec_.jitter.lo.ticks()),
            static_cast<std::uint64_t>(spec_.jitter.hi.ticks())))};
  }
  if (spec_.dup.probability > 0.0 &&
      dup_rng_.bernoulli(spec_.dup.probability)) {
    decision.duplicate_delays.reserve(spec_.dup.extra);
    for (std::uint32_t i = 0; i < spec_.dup.extra; ++i) {
      decision.duplicate_delays.push_back(
          SimTime{static_cast<SimTime::underlying>(dup_rng_.uniform_int(
              0, static_cast<std::uint64_t>(spec_.dup.spread.ticks())))});
    }
  }
  return decision;
}

void schedule_chaos_crashes(const ChaosSpec& spec, sim::Simulator& simulator,
                            std::function<void(MemberId)> crash) {
  expects(static_cast<bool>(crash), "crash callback required");
  const auto shared = std::make_shared<std::function<void(MemberId)>>(
      std::move(crash));
  for (const CrashEvent& c : spec.crashes) {
    simulator.schedule_at(c.at,
                          [shared, member = c.member]() { (*shared)(member); });
  }
}

}  // namespace gridbox::net
