#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "sim/rng.hpp"

namespace tbcs::fault {

const ByzantineSpec* FaultTimeline::byzantine_spec(sim::NodeId v) const {
  for (const ByzantineSpec& s : byzantine) {
    if (s.node == v) return &s;
  }
  return nullptr;
}

double FaultTimeline::last_event_time() const {
  double t = 0.0;
  for (const FaultEvent& e : events) t = std::max(t, e.t);
  return t;
}

// ---- programmatic construction ----------------------------------------------

void FaultPlan::crash(sim::NodeId v, double at) {
  Directive d;
  d.event = FaultEvent{FaultKind::kCrash, at, v, sim::kInvalidNode, 0.0};
  directives_.push_back(d);
}

void FaultPlan::recover(sim::NodeId v, double at) {
  Directive d;
  d.event = FaultEvent{FaultKind::kRecover, at, v, sim::kInvalidNode, 0.0};
  directives_.push_back(d);
}

void FaultPlan::link_down(sim::NodeId u, sim::NodeId v, double at) {
  Directive d;
  d.event = FaultEvent{FaultKind::kLinkDown, at, u, v, 0.0};
  directives_.push_back(d);
}

void FaultPlan::link_up(sim::NodeId u, sim::NodeId v, double at) {
  Directive d;
  d.event = FaultEvent{FaultKind::kLinkUp, at, u, v, 0.0};
  directives_.push_back(d);
}

void FaultPlan::flap(sim::NodeId u, sim::NodeId v, double at, double period,
                     int count) {
  for (int k = 0; k < count; ++k) {
    const double t0 = at + static_cast<double>(k) * period;
    link_down(u, v, t0);
    link_up(u, v, t0 + period / 2.0);
  }
}

void FaultPlan::drift_spike(sim::NodeId v, double at, double rate,
                            double duration) {
  Directive d;
  d.event = FaultEvent{FaultKind::kDriftSpike, at, v, sim::kInvalidNode, rate};
  directives_.push_back(d);
  d.event = FaultEvent{FaultKind::kDriftRestore, at + duration, v,
                       sim::kInvalidNode, 1.0};
  directives_.push_back(d);
}

void FaultPlan::scramble(sim::NodeId v, double at, double magnitude) {
  Directive d;
  d.event =
      FaultEvent{FaultKind::kScramble, at, v, sim::kInvalidNode, magnitude};
  directives_.push_back(d);
}

void FaultPlan::byzantine(sim::NodeId v, double from, double until, bool random,
                          double offset) {
  Directive d;
  d.kind = Directive::Kind::kByzantine;
  d.spec = ByzantineSpec{v, random, offset};
  d.from = from;
  d.until = until;
  directives_.push_back(d);
}

void FaultPlan::channel(const ChannelWindow& w) {
  Directive d;
  d.kind = Directive::Kind::kChannel;
  d.window = w;
  directives_.push_back(d);
}

void FaultPlan::random_crashes(int count, double from, double until,
                               double down_min, double down_max) {
  Directive d;
  d.kind = Directive::Kind::kRandomCrashes;
  d.count = count;
  d.from = from;
  d.until = until;
  d.down_min = down_min;
  d.down_max = down_max;
  directives_.push_back(d);
}

void FaultPlan::random_flaps(int count, double from, double until,
                             double down) {
  Directive d;
  d.kind = Directive::Kind::kRandomFlaps;
  d.count = count;
  d.from = from;
  d.until = until;
  d.down_min = down;
  d.down_max = down;
  directives_.push_back(d);
}

// ---- parsing ----------------------------------------------------------------

namespace {

using KeyValues = std::map<std::string, std::string>;

[[noreturn]] void fail(int line, const std::string& what) {
  throw PlanError("fault plan line " + std::to_string(line) + ": " + what);
}

double need_num(const KeyValues& kv, const char* key, int line) {
  const auto it = kv.find(key);
  if (it == kv.end()) fail(line, std::string("missing ") + key + "=");
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    fail(line, std::string("bad number for ") + key + ": " + it->second);
  }
}

double opt_num(const KeyValues& kv, const char* key, double fallback,
               int line) {
  return kv.count(key) ? need_num(kv, key, line) : fallback;
}

// Node ids and counts.  Casting a NaN, infinite or out-of-range double to
// int is undefined, so those are rejected first, with negatives and fractions.
int need_int(const KeyValues& kv, const char* key, int line) {
  const double v = need_num(kv, key, line);
  constexpr int kMax = std::numeric_limits<int>::max();
  if (!(v >= 0.0 && v <= kMax) || v != std::floor(v)) {
    fail(line, std::string(key) + " must be an integer in [0, " +
                   std::to_string(kMax) + "], got " + kv.at(key));
  }
  return static_cast<int>(v);
}

}  // namespace

FaultPlan FaultPlan::parse(std::istream& is) {
  FaultPlan plan;
  std::string raw;
  int line = 0;
  while (std::getline(is, raw)) {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ss(raw);
    std::string kind;
    if (!(ss >> kind)) continue;  // blank / comment-only line
    KeyValues kv;
    std::string token;
    while (ss >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        fail(line, "expected key=value, got '" + token + "'");
      }
      kv[token.substr(0, eq)] = token.substr(eq + 1);
    }
    const std::size_t first_new = plan.directives_.size();
    if (kind == "crash") {
      plan.crash(need_int(kv, "node", line), need_num(kv, "at", line));
    } else if (kind == "recover") {
      plan.recover(need_int(kv, "node", line), need_num(kv, "at", line));
    } else if (kind == "link-down") {
      plan.link_down(need_int(kv, "u", line), need_int(kv, "v", line),
                     need_num(kv, "at", line));
    } else if (kind == "link-up") {
      plan.link_up(need_int(kv, "u", line), need_int(kv, "v", line),
                   need_num(kv, "at", line));
    } else if (kind == "flap") {
      plan.flap(need_int(kv, "u", line), need_int(kv, "v", line),
                need_num(kv, "at", line), need_num(kv, "period", line),
                kv.count("count") ? need_int(kv, "count", line) : 1);
    } else if (kind == "drift") {
      const double dur = need_num(kv, "for", line);
      if (dur <= 0.0) fail(line, "drift needs for > 0");
      plan.drift_spike(need_int(kv, "node", line), need_num(kv, "at", line),
                       need_num(kv, "rate", line), dur);
    } else if (kind == "scramble") {
      const double mag = need_num(kv, "magnitude", line);
      if (mag <= 0.0) fail(line, "scramble needs magnitude > 0");
      plan.scramble(need_int(kv, "node", line), need_num(kv, "at", line), mag);
    } else if (kind == "byzantine") {
      const auto mode = kv.count("mode") ? kv.at("mode") : "fixed";
      if (mode != "fixed" && mode != "random") {
        fail(line, "byzantine mode must be fixed or random");
      }
      plan.byzantine(need_int(kv, "node", line), need_num(kv, "from", line),
                     need_num(kv, "until", line), mode == "random",
                     need_num(kv, "offset", line));
    } else if (kind == "channel") {
      ChannelWindow w;
      w.t0 = need_num(kv, "from", line);
      w.t1 = need_num(kv, "until", line);
      w.drop = opt_num(kv, "drop", 0.0, line);
      w.duplicate = opt_num(kv, "dup", 0.0, line);
      w.corrupt = opt_num(kv, "corrupt", 0.0, line);
      w.magnitude = opt_num(kv, "magnitude", 0.0, line);
      w.jitter = opt_num(kv, "jitter", 0.0, line);
      if (w.t1 <= w.t0) fail(line, "channel window needs until > from");
      for (const double p : {w.drop, w.duplicate, w.corrupt}) {
        if (p < 0.0 || p > 1.0) fail(line, "probabilities must be in [0, 1]");
      }
      plan.channel(w);
    } else if (kind == "random-crashes") {
      plan.random_crashes(need_int(kv, "count", line),
                          need_num(kv, "from", line),
                          need_num(kv, "until", line),
                          need_num(kv, "down-min", line),
                          need_num(kv, "down-max", line));
    } else if (kind == "random-flaps") {
      plan.random_flaps(need_int(kv, "count", line),
                        need_num(kv, "from", line),
                        need_num(kv, "until", line),
                        need_num(kv, "down", line));
    } else {
      fail(line, "unknown directive '" + kind + "'");
    }
    for (std::size_t j = first_new; j < plan.directives_.size(); ++j) {
      plan.directives_[j].line = line;
    }
  }
  plan.validate_windows();
  return plan;
}

FaultPlan FaultPlan::parse_string(const std::string& text) {
  std::istringstream ss(text);
  return parse(ss);
}

FaultPlan FaultPlan::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw PlanError("cannot open fault plan: " + path);
  return parse(is);
}

// ---- cross-directive validation ---------------------------------------------

namespace {

std::string at_line(int line) {
  return line > 0 ? " (line " + std::to_string(line) + ")" : std::string();
}

[[noreturn]] void fail_overlap(const char* what, int line, int other_line) {
  std::string msg = "fault plan";
  if (line > 0) msg += " line " + std::to_string(line);
  msg += ": ";
  msg += what;
  msg += " overlaps the one";
  msg += at_line(other_line);
  msg += "; split or merge the windows";
  throw PlanError(msg);
}

}  // namespace

void FaultPlan::validate_windows() const {
  struct Span {
    double t0, t1;
    sim::NodeId node;
    int line;
  };
  std::vector<Span> channels, byz, drifts;
  for (std::size_t i = 0; i < directives_.size(); ++i) {
    const Directive& d = directives_[i];
    switch (d.kind) {
      case Directive::Kind::kChannel:
        channels.push_back(
            Span{d.window.t0, d.window.t1, sim::kInvalidNode, d.line});
        break;
      case Directive::Kind::kByzantine:
        if (d.until <= d.from) {
          throw PlanError("fault plan" +
                          (d.line > 0 ? " line " + std::to_string(d.line)
                                      : std::string()) +
                          ": byzantine window needs until > from");
        }
        byz.push_back(Span{d.from, d.until, d.spec.node, d.line});
        break;
      case Directive::Kind::kScripted:
        // drift_spike() pushes the spike and its restore adjacently; the
        // pair is one forced-rate window on that node.
        if (d.event.kind == FaultKind::kDriftSpike &&
            i + 1 < directives_.size() &&
            directives_[i + 1].event.kind == FaultKind::kDriftRestore &&
            directives_[i + 1].event.node == d.event.node) {
          drifts.push_back(Span{d.event.t, directives_[i + 1].event.t,
                                d.event.node, d.line});
        }
        break;
      default:
        break;
    }
  }
  const auto overlap = [](const Span& a, const Span& b) {
    return std::max(a.t0, b.t0) < std::min(a.t1, b.t1);
  };
  // Two channel windows covering the same instant: the decorator applies
  // the first match, so the second would be silently shadowed.
  for (std::size_t i = 0; i < channels.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (overlap(channels[i], channels[j])) {
        fail_overlap("channel window", channels[i].line, channels[j].line);
      }
    }
  }
  // Two Byzantine windows for one node: a single spec per node drives the
  // lying decorator, so the offsets would contradict each other.
  for (std::size_t i = 0; i < byz.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (byz[i].node == byz[j].node && overlap(byz[i], byz[j])) {
        fail_overlap("byzantine window", byz[i].line, byz[j].line);
      }
    }
  }
  // Two drift spikes on one node: the earlier restore would stomp the
  // later spike's forced rate mid-window.
  for (std::size_t i = 0; i < drifts.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (drifts[i].node == drifts[j].node && overlap(drifts[i], drifts[j])) {
        fail_overlap("drift window", drifts[i].line, drifts[j].line);
      }
    }
  }
}

// ---- instantiation ----------------------------------------------------------

FaultTimeline FaultPlan::instantiate(std::uint64_t seed,
                                     const graph::Graph& g) const {
  FaultTimeline tl;
  // One independent stream per random directive, derived from (seed, index)
  // alone, so editing one directive never re-randomizes the others.
  const auto directive_rng = [seed](std::size_t i) {
    sim::SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(i + 1) *
                               0x9e3779b97f4a7c15ULL));
    return sim::Rng(sm.next());
  };
  const auto check_node = [&](sim::NodeId v, int line) {
    if (v < 0 || v >= g.num_nodes()) {
      throw PlanError("fault plan" + at_line(line) + " names node " +
                      std::to_string(v) + " but the topology has " +
                      std::to_string(g.num_nodes()) + " nodes");
    }
  };
  const auto check_edge = [&](sim::NodeId u, sim::NodeId v, int line) {
    check_node(u, line);
    check_node(v, line);
    if (!g.has_edge(u, v)) {
      throw PlanError("fault plan" + at_line(line) + " names link {" +
                      std::to_string(u) + ", " + std::to_string(v) +
                      "} which is not a topology edge");
    }
  };

  for (std::size_t i = 0; i < directives_.size(); ++i) {
    const Directive& d = directives_[i];
    switch (d.kind) {
      case Directive::Kind::kScripted: {
        FaultEvent e = d.event;
        if (e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp) {
          check_edge(e.node, e.node2, d.line);
        } else {
          check_node(e.node, d.line);
        }
        if (e.kind == FaultKind::kScramble) {
          // The corruption seed comes from the same per-directive stream as
          // every other random draw: a pure function of (plan seed, index).
          sim::SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(i + 1) *
                                     0x9e3779b97f4a7c15ULL));
          e.aux = sm.next();
        }
        tl.events.push_back(e);
        break;
      }
      case Directive::Kind::kChannel: {
        tl.windows.push_back(d.window);
        tl.events.push_back(FaultEvent{FaultKind::kChannelOn, d.window.t0,
                                       sim::kInvalidNode, sim::kInvalidNode,
                                       0.0});
        tl.events.push_back(FaultEvent{FaultKind::kChannelOff, d.window.t1,
                                       sim::kInvalidNode, sim::kInvalidNode,
                                       0.0});
        break;
      }
      case Directive::Kind::kByzantine: {
        check_node(d.spec.node, d.line);
        tl.byzantine.push_back(d.spec);
        tl.events.push_back(FaultEvent{FaultKind::kByzantineOn, d.from,
                                       d.spec.node, sim::kInvalidNode,
                                       d.spec.offset});
        tl.events.push_back(FaultEvent{FaultKind::kByzantineOff, d.until,
                                       d.spec.node, sim::kInvalidNode, 0.0});
        break;
      }
      case Directive::Kind::kRandomCrashes: {
        sim::Rng rng = directive_rng(i);
        for (int k = 0; k < d.count; ++k) {
          const auto v = static_cast<sim::NodeId>(
              rng.uniform_index(static_cast<std::uint64_t>(g.num_nodes())));
          const double at = rng.uniform(d.from, d.until);
          const double down = rng.uniform(d.down_min, d.down_max);
          tl.events.push_back(
              FaultEvent{FaultKind::kCrash, at, v, sim::kInvalidNode, 0.0});
          tl.events.push_back(FaultEvent{FaultKind::kRecover, at + down, v,
                                         sim::kInvalidNode, 0.0});
        }
        break;
      }
      case Directive::Kind::kRandomFlaps: {
        sim::Rng rng = directive_rng(i);
        const auto& edges = g.edges();
        if (edges.empty()) break;
        for (int k = 0; k < d.count; ++k) {
          const auto& [u, v] = edges[rng.uniform_index(edges.size())];
          const double at = rng.uniform(d.from, d.until);
          tl.events.push_back(
              FaultEvent{FaultKind::kLinkDown, at, u, v, 0.0});
          tl.events.push_back(
              FaultEvent{FaultKind::kLinkUp, at + d.down_min, u, v, 0.0});
        }
        break;
      }
    }
  }

  std::stable_sort(tl.events.begin(), tl.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.t < b.t;
                   });
  return tl;
}

}  // namespace tbcs::fault
