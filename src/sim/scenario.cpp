#include "sim/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/checkpoint.hpp"
#include "sim/sources.hpp"
#include "sim/topology.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace hfsc {

namespace {

// Parse errors carry the file name (when known) ahead of the line number,
// "file.scn:12: ..." editor-style, so a failing batch run says which of
// its inputs is broken.
[[noreturn]] void fail_at(const std::string& name, std::size_t line,
                          const std::string& what) {
  if (name.empty()) {
    throw std::runtime_error("scenario line " + std::to_string(line) + ": " +
                             what);
  }
  throw std::runtime_error(name + ":" + std::to_string(line) + ": " + what);
}

// What the unit parsers throw; Scenario::parse adds the line number.
struct UnitError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Splits "<number><suffix>" where number may be decimal.  The whole
// digit-and-dot prefix must be one numeral: "1..5" and "1.2.3" are
// malformed, not 1 and 1.2.
bool split_unit(const std::string& tok, double* value, std::string* unit) {
  std::size_t i = 0;
  while (i < tok.size() &&
         (std::isdigit(static_cast<unsigned char>(tok[i])) || tok[i] == '.')) {
    ++i;
  }
  if (i == 0) return false;
  try {
    std::size_t used = 0;
    *value = std::stod(tok.substr(0, i), &used);
    if (used != i) return false;
  } catch (...) {
    return false;
  }
  *unit = tok.substr(i);
  return true;
}

}  // namespace

RateBps parse_rate(const std::string& tok) {
  double v;
  std::string unit;
  if (!split_unit(tok, &v, &unit)) {
    throw UnitError("bad rate: " + tok);
  }
  double bits;
  if (unit == "bps") {
    bits = v;
  } else if (unit == "kbps") {
    bits = v * 1e3;
  } else if (unit == "Mbps" || unit == "mbps") {
    bits = v * 1e6;
  } else if (unit == "Gbps" || unit == "gbps") {
    bits = v * 1e9;
  } else {
    throw UnitError("bad rate unit: " + tok);
  }
  // The cast is only defined for values the integer type can hold.
  if (!(bits / 8.0 < 0x1p64)) {
    throw UnitError("rate out of range: " + tok);
  }
  return static_cast<RateBps>(bits / 8.0);
}

TimeNs parse_time(const std::string& tok) {
  double v;
  std::string unit;
  if (!split_unit(tok, &v, &unit)) {
    throw UnitError("bad time: " + tok);
  }
  double ns;
  if (unit == "ns") {
    ns = v;
  } else if (unit == "us") {
    ns = v * 1e3;
  } else if (unit == "ms") {
    ns = v * 1e6;
  } else if (unit == "s") {
    ns = v * 1e9;
  } else {
    throw UnitError("bad time unit: " + tok);
  }
  if (!(ns < 0x1p64)) throw UnitError("time out of range: " + tok);
  return static_cast<TimeNs>(ns);
}

Bytes parse_bytes(const std::string& tok) {
  // std::stoull silently accepts a leading '-' (wrapping); reject any
  // non-digit up front.
  if (tok.empty() ||
      !std::all_of(tok.begin(), tok.end(), [](unsigned char c) {
        return std::isdigit(c);
      })) {
    throw UnitError("bad byte count: " + tok);
  }
  try {
    return static_cast<Bytes>(std::stoull(tok));
  } catch (...) {
    throw UnitError("bad byte count: " + tok);
  }
}

namespace {

// Rates and times a directive divides by or steps the clock with.  The
// unit parsers floor to whole bytes/s and nanoseconds, so a written
// "7bps" is as zero as "0bps"; either fails at its own line.
RateBps parse_positive_rate(const std::string& tok, const std::string& what) {
  const RateBps r = parse_rate(tok);
  if (r == 0) throw UnitError(what + " must be at least 8bps: " + tok);
  return r;
}

TimeNs parse_positive_time(const std::string& tok, const std::string& what) {
  const TimeNs t = parse_time(tok);
  if (t == 0) throw UnitError(what + " must be at least 1ns: " + tok);
  return t;
}

ServiceCurve parse_spec(std::istringstream& ls, const std::string& fname,
                        std::size_t line) {
  // An explicitly written spec that evaluates to the zero curve is a
  // config mistake (the class would silently never receive that kind of
  // service), so it is rejected rather than parsed.
  auto nonzero = [&fname, line](const ServiceCurve& sc) {
    if (sc.is_zero()) fail_at(fname, line, "zero-rate service curve");
    return sc;
  };
  std::string kind;
  if (!(ls >> kind)) fail_at(fname, line, "missing curve spec");
  if (kind == "linear") {
    std::string r;
    if (!(ls >> r)) fail_at(fname, line, "linear needs a rate");
    return nonzero(ServiceCurve::linear(parse_rate(r)));
  }
  if (kind == "curve") {
    std::string m1, d, m2;
    if (!(ls >> m1 >> d >> m2)) fail_at(fname, line, "curve needs <m1> <d> <m2>");
    const ServiceCurve sc{parse_rate(m1), parse_time(d), parse_rate(m2)};
    if (!sc.is_supported()) {
      fail_at(fname, line, "unsupported curve shape (must be concave, or convex with "
                 "m1 = 0)");
    }
    return nonzero(sc);
  }
  if (kind == "udr") {
    std::string u, d, r;
    if (!(ls >> u >> d >> r)) fail_at(fname, line, "udr needs <u> <d> <r>");
    return nonzero(from_udr(parse_bytes(u), parse_time(d), parse_rate(r)));
  }
  fail_at(fname, line, "unknown curve spec kind: " + kind);
}

// Body of a `class` directive after <name> <parent>: rt/ls/ul/qlimit
// attributes.  Shared between static classes and timed (`at ... class`)
// creations.
void parse_class_attrs(std::istringstream& ls, HierarchySpec::ClassSpec* c,
                       const std::string& fname, std::size_t line) {
  std::string key;
  while (ls >> key) {
    if (key == "rt") {
      c->rt = parse_spec(ls, fname, line);
    } else if (key == "ls") {
      c->ls = parse_spec(ls, fname, line);
    } else if (key == "ul") {
      c->ul = parse_spec(ls, fname, line);
    } else if (key == "qlimit") {
      std::string n;
      if (!(ls >> n)) fail_at(fname, line, "qlimit needs a count");
      c->qlimit = static_cast<std::size_t>(parse_bytes(n));
    } else {
      fail_at(fname, line, "unknown class attribute: " + key);
    }
  }
  if (c->rt.is_zero() && c->ls.is_zero()) {
    fail_at(fname, line, "class " + c->name + " needs at least one of rt/ls");
  }
}

// Parses one source directive body after `source <kind> <class>`.  The
// timed form (`at <t> source ...`) omits <start>/<stop>: the event time
// is the start and the stop is resolved from later stop/delete events.
ScenarioSource parse_source(std::istringstream& ls, const std::string& kind,
                            bool timed, const std::string& fname,
                            std::size_t line) {
  ScenarioSource s;
  auto want = [&](const char* what) -> std::string {
    std::string tok;
    if (!(ls >> tok)) fail_at(fname, line, std::string("source missing ") + what);
    return tok;
  };
  // A zero-length packet costs no transmission time, so its source
  // would emit forever without advancing the clock.
  auto pkt = [&] {
    const Bytes len = parse_bytes(want("pkt"));
    if (len == 0) fail_at(fname, line, "source pkt must be > 0");
    return len;
  };
  // A finite number spanning the whole token.
  auto real = [&](const char* what) {
    const std::string tok = want(what);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0' || !std::isfinite(v)) {
      fail_at(fname, line, std::string("bad ") + what + ": " + tok);
    }
    return v;
  };
  auto span = [&] {
    if (timed) return;
    s.start = parse_time(want("start"));
    s.stop = parse_time(want("stop"));
  };
  auto rate = [&](const char* what) {
    return parse_positive_rate(want(what), std::string("source ") + what);
  };
  // A greedy source enqueues its whole window at once and a tcpish one
  // can reach its max window in flight, so both are packet counts the
  // run materializes.
  auto source_window = [&](const std::string& tok, const char* what) {
    const Bytes n = parse_bytes(tok);
    if (n == 0) fail_at(fname, line, std::string(what) + " must be > 0");
    if (n > kMaxSourceWindow) {
      fail_at(fname, line, std::string(what) + " exceeds " +
                               std::to_string(kMaxSourceWindow) +
                               " packets: " + tok);
    }
    return static_cast<std::size_t>(n);
  };
  // A zero mean on-period never sends; with a zero off-period as well the
  // source steps the clock 1 ns per event.
  auto on_off = [&] {
    s.mean_on = parse_positive_time(want("mean_on"), "source mean_on");
    s.mean_off = parse_time(want("mean_off"));
  };
  if (kind == "cbr") {
    s.kind = ScenarioSource::Kind::kCbr;
    s.rate = rate("rate");
    s.pkt_len = pkt();
    span();
  } else if (kind == "poisson") {
    s.kind = ScenarioSource::Kind::kPoisson;
    s.rate = rate("rate");
    s.pkt_len = pkt();
    span();
    s.seed = parse_bytes(want("seed"));
  } else if (kind == "onoff") {
    s.kind = ScenarioSource::Kind::kOnOff;
    s.rate = rate("peak rate");
    s.pkt_len = pkt();
    on_off();
    span();
    s.seed = parse_bytes(want("seed"));
  } else if (kind == "pareto") {
    s.kind = ScenarioSource::Kind::kPareto;
    s.rate = rate("peak rate");
    s.pkt_len = pkt();
    on_off();
    s.alpha = real("alpha");
    if (!(s.alpha > 1.0)) {
      fail_at(fname, line, "pareto alpha must be > 1 (finite mean)");
    }
    span();
    s.seed = parse_bytes(want("seed"));
  } else if (kind == "greedy") {
    s.kind = ScenarioSource::Kind::kGreedy;
    s.pkt_len = pkt();
    s.window = source_window(want("window"), "greedy window");
    span();
  } else if (kind == "tcpish") {
    s.kind = ScenarioSource::Kind::kTcpish;
    s.pkt_len = pkt();
    s.window = source_window(want("max window"), "tcpish max window");
    span();
  } else if (kind == "video") {
    s.kind = ScenarioSource::Kind::kVideo;
    s.fps = real("fps");
    // The frame interval 1s/fps must be a whole, representable number
    // of nanoseconds: at least 1 ns, or the frames never advance time.
    if (!(s.fps > 0.0 && 1e9 / s.fps >= 1.0 && 1e9 / s.fps < 0x1p64)) {
      fail_at(fname, line, "video fps out of range (0, 1e9]");
    }
    s.mean_frame = parse_bytes(want("mean_frame"));
    s.max_frame = parse_bytes(want("max_frame"));
    if (s.mean_frame > s.max_frame) {
      fail_at(fname, line, "video mean_frame exceeds max_frame");
    }
    s.mtu = parse_bytes(want("mtu"));
    if (s.mtu == 0) fail_at(fname, line, "video mtu must be > 0");
    span();
    s.seed = parse_bytes(want("seed"));
  } else {
    fail_at(fname, line, "unknown source kind: " + kind);
  }
  std::string extra;
  if (ls >> extra) fail_at(fname, line, "trailing token: " + extra);
  s.line = line;
  return s;
}

}  // namespace

Scenario Scenario::parse(std::istream& in, const std::string& name) {
  Scenario sc;
  sc.file = name;
  // Parser scope: "" at top level, else the open `node` block.  Classes
  // declared at top level go to `top`, which becomes the implicit node
  // "link" of a single-node file once the whole file is read (a
  // multi-node file rejects them then).
  std::string cur_node;
  ScenarioNode top;
  top.name = "link";
  bool saw_link = false;
  auto scope = [&]() -> ScenarioNode& {
    return cur_node.empty() ? top : sc.nodes.back();
  };
  std::unordered_map<std::string, std::size_t> node_at;  // into sc.nodes
  // Class name -> every node declaring it statically (positions in
  // sc.nodes, kTop for the top level): the cross-node view a top-level
  // source or a deadline needs and no node's own index holds.
  constexpr std::size_t kTop = static_cast<std::size_t>(-1);
  std::unordered_map<std::string, std::vector<std::size_t>> owners;
  // "<node> <name>" (node "" at top level) of every class that only a
  // timed `at` event creates.
  std::unordered_set<std::string> timed;
  auto is_static = [](const ScenarioNode& n, const std::string& nm) {
    return n.spec.index().find(nm) != HierarchySpec::Index::npos;
  };
  // Whether the open scope declares `nm`, statically or by a timed event.
  auto declared = [&](const std::string& nm) {
    return is_static(scope(), nm) || timed.count(cur_node + ' ' + nm) != 0;
  };

  std::string raw;
  std::size_t line = 0;
  // The loop body is a try block so that a bad numeral or unit from
  // parse_rate/parse_time/parse_bytes fails at its line.
  while (std::getline(in, raw)) try {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ls(raw);
    std::string directive;
    if (!(ls >> directive)) continue;

    auto global_only = [&] {
      if (!cur_node.empty()) {
        fail_at(name, line,
                directive + " is a global directive (not allowed inside a "
                            "node block)");
      }
    };
    auto no_trailing = [&] {
      std::string extra;
      if (ls >> extra) fail_at(name, line, "trailing token: " + extra);
    };

    if (directive == "link") {
      global_only();
      if (sc.multi_node) {
        fail_at(name, line, "cannot mix `link` with `node` blocks");
      }
      std::string r;
      if (!(ls >> r)) fail_at(name, line, "link needs a rate");
      top.rate = parse_positive_rate(r, "link rate");
      saw_link = true;
    } else if (directive == "node") {
      if (!cur_node.empty()) fail_at(name, line, "nested node block");
      if (saw_link) {
        fail_at(name, line, "cannot mix `node` blocks with `link`");
      }
      ScenarioNode n;
      std::string r;
      if (!(ls >> n.name >> r)) fail_at(name, line, "node needs <name> <rate>");
      no_trailing();
      if (!node_at.emplace(n.name, sc.nodes.size()).second) {
        fail_at(name, line, "duplicate node " + n.name);
      }
      n.rate = parse_positive_rate(r, "node rate");
      n.line = line;
      cur_node = n.name;
      sc.nodes.push_back(std::move(n));
      sc.multi_node = true;
    } else if (directive == "end") {
      if (cur_node.empty()) fail_at(name, line, "end outside a node block");
      no_trailing();
      cur_node.clear();
    } else if (directive == "duration") {
      global_only();
      std::string t;
      if (!(ls >> t)) fail_at(name, line, "duration needs a time");
      sc.duration = parse_positive_time(t, "duration");
    } else if (directive == "window") {
      global_only();
      std::string t;
      if (!(ls >> t)) fail_at(name, line, "window needs a time");
      sc.window = parse_positive_time(t, "window");
    } else if (directive == "scheduler") {
      global_only();
      std::string kind;
      if (!(ls >> kind)) fail_at(name, line, "scheduler needs a kind");
      const auto parsed = parse_scheduler_kind(kind);
      if (!parsed) fail_at(name, line, "unknown scheduler kind: " + kind);
      sc.scheduler = *parsed;
    } else if (directive == "admission") {
      global_only();
      no_trailing();
      sc.admission = true;
    } else if (directive == "class") {
      if (sc.multi_node && cur_node.empty()) {
        fail_at(name, line, "class declared outside a node block");
      }
      HierarchySpec::ClassSpec c;
      if (!(ls >> c.name >> c.parent)) {
        fail_at(name, line, "class needs <name> <parent>");
      }
      if (declared(c.name)) fail_at(name, line, "duplicate class " + c.name);
      ScenarioNode& node = scope();
      if (c.parent != "root" && !is_static(node, c.parent)) {
        fail_at(name, line, "unknown parent class " + c.parent);
      }
      parse_class_attrs(ls, &c, name, line);
      c.line = line;
      owners[c.name].push_back(cur_node.empty() ? kTop : sc.nodes.size() - 1);
      node.spec.add(std::move(c));
    } else if (directive == "envelope") {
      std::string cls, burst, rate;
      if (!(ls >> cls >> burst >> rate)) {
        fail_at(name, line, "envelope needs <class> <burst> <rate>");
      }
      no_trailing();
      HierarchySpec& spec = scope().spec;
      const std::size_t i = spec.index().find(cls);
      if (i == HierarchySpec::Index::npos) {
        fail_at(name, line, "unknown class " + cls);
      }
      HierarchySpec::ClassSpec* c = &spec.classes[i];
      if (c->env_line != 0) {
        fail_at(name, line, "duplicate envelope for class " + cls);
      }
      c->env_burst = parse_bytes(burst);
      c->env_rate = parse_rate(rate);
      if (c->env_burst == 0 && c->env_rate == 0) {
        fail_at(name, line, "envelope must have a non-zero burst or rate");
      }
      c->env_line = line;
    } else if (directive == "deadline") {
      // Per-flow end-to-end budget: the class name identifies the flow
      // (across all hops for routed classes), so the directive is not
      // node-scoped.  Existence is validated after the whole file is
      // read — the class may be declared in a later node block.
      std::string cls, t;
      if (!(ls >> cls >> t)) {
        fail_at(name, line, "deadline needs <class> <time>");
      }
      no_trailing();
      ScenarioDeadline d;
      d.cls = cls;
      d.budget = parse_time(t);
      if (d.budget == 0) fail_at(name, line, "deadline must be positive");
      d.line = line;
      sc.deadlines.push_back(std::move(d));
    } else if (directive == "source") {
      std::string kind, cls;
      if (!(ls >> kind >> cls)) {
        fail_at(name, line, "source needs <kind> <class>");
      }
      // Inside a node block the class must live on that node; a top-level
      // source may name a class on any node (the entry node is resolved
      // from the route after the whole file is read).
      const bool known = cur_node.empty() ? owners.count(cls) != 0
                                          : is_static(scope(), cls);
      if (!known) fail_at(name, line, "unknown class " + cls);
      ScenarioSource s = parse_source(ls, kind, /*timed=*/false, name, line);
      s.cls = cls;
      s.node = cur_node;  // hint; entry node resolved after parsing
      sc.sources.push_back(std::move(s));
    } else if (directive == "route") {
      global_only();
      ScenarioRoute r;
      if (!(ls >> r.cls)) fail_at(name, line, "route needs <class> <node>...");
      std::string n;
      while (ls >> n) r.nodes.push_back(std::move(n));
      r.line = line;
      sc.routes.push_back(std::move(r));
    } else if (directive == "at") {
      if (sc.multi_node && cur_node.empty()) {
        fail_at(name, line, "`at` event outside a node block");
      }
      std::string t, what;
      if (!(ls >> t >> what)) {
        fail_at(name, line, "at needs <time> <class|delete|source|stop>");
      }
      ScenarioEvent e;
      e.at = parse_time(t);
      e.node = cur_node;
      e.line = line;
      if (what == "class") {
        e.kind = ScenarioEvent::Kind::kAddClass;
        if (!(ls >> e.cls.name >> e.cls.parent)) {
          fail_at(name, line, "at ... class needs <name> <parent>");
        }
        if (is_static(scope(), e.cls.name)) {
          fail_at(name, line,
                  "timed class " + e.cls.name + " duplicates a static class");
        }
        if (e.cls.parent != "root" && !declared(e.cls.parent)) {
          fail_at(name, line, "unknown parent class " + e.cls.parent);
        }
        parse_class_attrs(ls, &e.cls, name, line);
        e.cls.line = line;
        timed.insert(cur_node + ' ' + e.cls.name);
      } else if (what == "delete") {
        e.kind = ScenarioEvent::Kind::kDeleteClass;
        if (!(ls >> e.target)) fail_at(name, line, "at ... delete needs <class>");
        no_trailing();
        if (!declared(e.target)) {
          fail_at(name, line, "unknown class " + e.target);
        }
      } else if (what == "source") {
        e.kind = ScenarioEvent::Kind::kStartSource;
        std::string kind, cls;
        if (!(ls >> kind >> cls)) {
          fail_at(name, line, "at ... source needs <kind> <class>");
        }
        if (!declared(cls)) fail_at(name, line, "unknown class " + cls);
        e.src = parse_source(ls, kind, /*timed=*/true, name, line);
        e.src.cls = cls;
        e.src.node = cur_node;
        e.src.start = e.at;
        e.src.stop = kTimeInfinity;  // truncated by later stop/delete
      } else if (what == "stop") {
        e.kind = ScenarioEvent::Kind::kStopSources;
        if (!(ls >> e.target)) fail_at(name, line, "at ... stop needs <class>");
        no_trailing();
        if (!declared(e.target)) {
          fail_at(name, line, "unknown class " + e.target);
        }
      } else {
        fail_at(name, line, "unknown at-directive: " + what);
      }
      sc.events.push_back(std::move(e));
    } else {
      fail_at(name, line, "unknown directive: " + directive);
    }
  } catch (const UnitError& e) {
    fail_at(name, line, e.what());
  } catch (const Error& e) {
    // A class the hierarchy refuses (the reserved name "root").
    fail_at(name, line, e.what());
  }

  // ---- finalize -----------------------------------------------------------
  const std::string fname = name.empty() ? "scenario" : name;
  if (sc.multi_node) {
    if (!cur_node.empty()) {
      fail_at(fname, line, "unterminated node block (missing end)");
    }
    if (!top.spec.classes.empty()) {
      fail_at(name, top.spec.classes.front().line,
              "class declared outside a node block");
    }
    for (const ScenarioEvent& e : sc.events) {
      if (e.node.empty()) {
        fail_at(name, e.line, "`at` event outside a node block");
      }
    }
  } else {
    if (top.rate == 0) fail_at(fname, line, "missing link");
    if (!sc.routes.empty()) {
      fail_at(name, sc.routes.front().line,
              "route needs `node` blocks (single-link scenario)");
    }
    sc.nodes.push_back(std::move(top));
    for (ScenarioSource& s : sc.sources) s.node = "link";
    for (ScenarioEvent& e : sc.events) {
      e.node = "link";
      if (e.kind == ScenarioEvent::Kind::kStartSource) e.src.node = "link";
    }
  }
  if (sc.duration == 0) fail_at(fname, line, "missing duration");
  if (std::all_of(sc.nodes.begin(), sc.nodes.end(), [](const ScenarioNode& n) {
        return n.spec.classes.empty();
      })) {
    fail_at(fname, line, "no classes");
  }

  // Route validation: every hop must name a known node carrying a static
  // declaration of the class, no node repeats, and one route per class
  // (so no (node, class) pair is covered twice).
  std::unordered_map<std::string, const ScenarioRoute*> route_of;
  for (const ScenarioRoute& r : sc.routes) {
    if (r.nodes.size() < 2) {
      fail_at(name, r.line, "route needs at least two nodes");
    }
    if (!route_of.emplace(r.cls, &r).second) {
      fail_at(name, r.line, "duplicate route for class " + r.cls);
    }
    std::set<std::string> seen;
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      const std::string& nn = r.nodes[i];
      if (!seen.insert(nn).second) {
        fail_at(name, r.line, "route visits node " + nn + " twice");
      }
      const auto at = node_at.find(nn);
      if (at == node_at.end()) {
        fail_at(name, r.line, "route through unknown node " + nn);
      }
      if (!is_static(sc.nodes[at->second], r.cls)) {
        fail_at(name, r.line,
                i == 0 ? "class " + r.cls + " is not declared on its first "
                         "hop " + nn
                       : "class " + r.cls + " is not declared on hop " + nn);
      }
    }
  }

  // Deadline validation: the class must exist somewhere, one budget per
  // class.
  {
    std::set<std::string> budgeted;
    for (const ScenarioDeadline& d : sc.deadlines) {
      if (owners.count(d.cls) == 0) {
        fail_at(name, d.line, "unknown class " + d.cls);
      }
      if (!budgeted.insert(d.cls).second) {
        fail_at(name, d.line, "duplicate deadline for class " + d.cls);
      }
    }
  }

  // Entry-node resolution: a source feeds its class's route at the first
  // hop; an unrouted class must pin the source to a node (its block, or
  // being declared on exactly one node).
  auto resolve_entry = [&](ScenarioSource& s) {
    if (const auto r = route_of.find(s.cls); r != route_of.end()) {
      const std::string& entry = r->second->nodes.front();
      if (!s.node.empty() && s.node != entry) {
        fail_at(name, s.line,
                "source for routed class " + s.cls + " must enter at its "
                "first hop " + entry);
      }
      s.node = entry;
      return;
    }
    if (!s.node.empty()) return;
    // Parse checked the class exists on some node.
    const std::vector<std::size_t>& own = owners.at(s.cls);
    if (own.size() > 1) {
      fail_at(name, s.line,
              "class " + s.cls + " is declared on several nodes; add a "
              "route or move the source into a node block");
    }
    s.node = sc.nodes[own.front()].name;
  };
  for (ScenarioSource& s : sc.sources) resolve_entry(s);
  for (ScenarioEvent& e : sc.events) {
    if (e.kind == ScenarioEvent::Kind::kStartSource) resolve_entry(e.src);
  }
  return sc;
}

Scenario Scenario::parse_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open scenario: " + path);
  return parse(f, path);
}

const ScenarioNode* Scenario::find_node(const std::string& name) const {
  for (const ScenarioNode& n : nodes) {
    if (n.name == name) return &n;
  }
  return nullptr;
}

const HierarchySpec& Scenario::node_hierarchy_spec(
    const std::string& name) const {
  static const HierarchySpec kNone;
  const ScenarioNode* n = find_node(name);
  return n != nullptr ? n->spec : kNone;
}

// ---------------------------------------------------------------------------
// Delay histograms

const std::vector<double>& delay_hist_edges_ms() {
  static const std::vector<double> edges = [] {
    std::vector<double> e;
    double v = 0.001;  // 1 us
    for (int k = 0; k <= 24; ++k, v *= 2.0) e.push_back(v);
    return e;
  }();
  return edges;
}

std::vector<std::uint64_t> delay_histogram(const std::vector<double>& ms) {
  const std::vector<double>& edges = delay_hist_edges_ms();
  std::vector<std::uint64_t> counts(edges.size() + 1, 0);
  for (double v : ms) {
    const auto it = std::upper_bound(edges.begin(), edges.end(), v);
    ++counts[static_cast<std::size_t>(it - edges.begin())];
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Runner

namespace {

void install_source(const ScenarioSource& s, ClassId cls, Topology& topo,
                    Topology::NodeIndex n) {
  switch (s.kind) {
    case ScenarioSource::Kind::kCbr:
      topo.add_source<CbrSource>(n, cls, s.rate, s.pkt_len, s.start, s.stop);
      break;
    case ScenarioSource::Kind::kPoisson:
      topo.add_source<PoissonSource>(n, cls, s.rate, s.pkt_len, s.start,
                                     s.stop, s.seed);
      break;
    case ScenarioSource::Kind::kOnOff:  // alpha 0: exponential periods
    case ScenarioSource::Kind::kPareto:
      topo.add_source<OnOffSource>(n, cls, s.rate, s.pkt_len, s.mean_on,
                                   s.mean_off, s.alpha, s.start, s.stop,
                                   s.seed);
      break;
    case ScenarioSource::Kind::kGreedy:
      topo.add_source<GreedySource>(n, cls, s.pkt_len, s.window, s.start,
                                    s.stop);
      break;
    case ScenarioSource::Kind::kTcpish:
      topo.add_source<TcpishSource>(n, cls, s.pkt_len, s.window, s.start,
                                    s.stop);
      break;
    case ScenarioSource::Kind::kVideo:
      topo.add_source<VideoSource>(n, cls, s.fps, s.mean_frame, s.max_frame,
                                   s.mtu, s.start, s.stop, s.seed);
      break;
  }
}

// Per-node live state while the simulation runs: the compiled scheduler
// plus the name -> id view the timed events mutate, and the full id
// provenance of every class name for merged reporting.
struct NodeRun {
  Topology::NodeIndex idx = 0;
  std::unique_ptr<Scheduler> sched;  // borrowed by the Topology node
  HierarchySpec::IdMap ids;     // static name -> id
  Hfsc* hfsc = nullptr;         // non-null when the family is H-FSC
  // Current name -> id (starts as `ids`; timed creates/deletes move it).
  std::map<std::string, ClassId> live;
  // Every id a name ever had on this node, creation order (a deleted and
  // re-created class reports the union of its incarnations).
  std::map<std::string, std::vector<ClassId>> history;
  // Timed-created names in first-creation order (report after statics).
  std::vector<std::string> at_names;
};

void json_num(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(12);
  tmp << v;
  os << tmp.str();
}

void json_hist(std::ostream& os, const std::vector<std::uint64_t>& hist) {
  os << '[';
  for (std::size_t i = 0; i < hist.size(); ++i) {
    if (i) os << ',';
    os << hist[i];
  }
  os << ']';
}

}  // namespace

ScenarioResult run_scenario(const Scenario& sc) {
  return run_scenario(sc, ScenarioRunOptions{});
}

ScenarioResult run_scenario(const Scenario& sc,
                            const ScenarioRunOptions& opts) {
  const SchedulerKind kind = opts.scheduler.value_or(sc.scheduler);
  const bool admission = opts.admission || sc.admission;
  if (!opts.checkpoint_path.empty() && kind != SchedulerKind::kHfsc) {
    throw std::runtime_error(
        "checkpointing requires the hfsc scheduler (running " +
        std::string(to_string(kind)) + ")");
  }
  if (!opts.checkpoint_path.empty() && sc.nodes.size() > 1) {
    throw std::runtime_error(
        "checkpointing is limited to single-node scenarios");
  }
  const bool has_class_events =
      std::any_of(sc.events.begin(), sc.events.end(), [](const auto& e) {
        return e.kind == ScenarioEvent::Kind::kAddClass ||
               e.kind == ScenarioEvent::Kind::kDeleteClass;
      });
  if (has_class_events && kind != SchedulerKind::kHfsc) {
    throw std::runtime_error(
        "timed class events require the hfsc scheduler (running " +
        std::string(to_string(kind)) + ")");
  }

  // The node schedulers (owned by `runs`) outlive the Topology that
  // borrows them.
  std::vector<NodeRun> runs;
  runs.reserve(sc.nodes.size());
  EventQueue ev;
  Topology topo(ev, sc.window);

  ScenarioResult out;
  std::unordered_map<std::string, std::size_t> run_of;
  for (std::size_t k = 0; k < sc.nodes.size(); ++k) {
    const ScenarioNode& n = sc.nodes[k];
    run_of.emplace(n.name, k);
    NodeRun nr;
    HierarchySpec::CompileOptions copts;
    copts.audit_every = opts.audit_every;
    copts.admission = admission;
    HierarchySpec::Compiled compiled = n.spec.compile(kind, n.rate, copts);
    nr.hfsc = compiled.hfsc;
    nr.ids = std::move(compiled.ids);
    nr.sched = std::move(compiled.sched);
    nr.idx = topo.add_node(n.name, n.rate, *nr.sched);
    for (const auto& [cname, id] : nr.ids) {
      nr.live.emplace(cname, id);
      nr.history[cname].push_back(id);
    }
    for (std::string& note : compiled.notes) {
      out.notes.push_back(sc.multi_node ? n.name + ": " + std::move(note)
                                        : std::move(note));
    }
    runs.push_back(std::move(nr));
  }
  auto node_run = [&](const std::string& nm) -> NodeRun& {
    const auto it = run_of.find(nm);
    if (it == run_of.end()) {
      throw std::runtime_error("unknown node " + nm);  // unreachable post-parse
    }
    return runs[it->second];
  };

  // Wire the routes (parse order == Topology route index order).
  for (const ScenarioRoute& r : sc.routes) {
    std::vector<Topology::Hop> hops;
    for (const std::string& nn : r.nodes) {
      NodeRun& nr = node_run(nn);
      const auto it = nr.ids.find(r.cls);
      if (it == nr.ids.end()) {
        throw std::runtime_error("routed class '" + r.cls +
                                 "' was dropped by the " +
                                 std::string(to_string(kind)) + " mapping");
      }
      hops.push_back(Topology::Hop{nr.idx, it->second});
    }
    topo.add_route(std::move(hops));
  }

  // Resolve the static source list: copies so stop/delete events can
  // truncate stop times without touching the caller's Scenario.
  std::vector<ScenarioSource> static_srcs = sc.sources;
  std::vector<ScenarioSource> timed_srcs;
  for (const ScenarioEvent& e : sc.events) {
    if (e.kind == ScenarioEvent::Kind::kStartSource) {
      timed_srcs.push_back(e.src);
    }
  }
  {
    // Index sources by (node, class) so a churn scenario with 100k
    // stop/delete events doesn't rescan every source per event.
    std::map<std::pair<std::string, std::string>, std::vector<ScenarioSource*>>
        by_cls;
    for (ScenarioSource& s : static_srcs) by_cls[{s.node, s.cls}].push_back(&s);
    for (ScenarioSource& s : timed_srcs) by_cls[{s.node, s.cls}].push_back(&s);
    for (const ScenarioEvent& e : sc.events) {
      if (e.kind != ScenarioEvent::Kind::kStopSources &&
          e.kind != ScenarioEvent::Kind::kDeleteClass) {
        continue;
      }
      const auto it = by_cls.find({e.node, e.target});
      if (it == by_cls.end()) continue;
      for (ScenarioSource* s : it->second) {
        if (s->start <= e.at && s->stop > e.at) s->stop = e.at;
      }
    }
  }

  // Static sources first, in file order — the exact install sequence the
  // single-link engine used, which the bit-identity tests pin.
  for (const ScenarioSource& s : static_srcs) {
    NodeRun& nr = node_run(s.node);
    const auto it = nr.ids.find(s.cls);
    if (it == nr.ids.end()) {
      // Flat families drop interior classes; a source may only feed a leaf
      // anyway, so a missing id means the scenario misattached a source.
      throw std::runtime_error("source class '" + s.cls +
                               "' was dropped by the " +
                               std::string(to_string(kind)) + " mapping");
    }
    install_source(s, it->second, topo, nr.idx);
  }

  // Timed control plane.  Class creations/deletions at the same (node,
  // time) coalesce into ONE transaction, so a churn step pays one
  // commit's fixed cost rather than one per op (a commit validates only
  // the classes it touches, O(ops · log n)).  A batch refused by
  // admission control falls back to per-op commits so each class gets its
  // own verdict (the flash-crowd behaviour Section II's feasibility test
  // implies).
  std::uint64_t classes_rejected = 0;
  std::uint64_t sources_skipped = 0;
  struct Group {
    TimeNs at = 0;
    NodeRun* nr = nullptr;
    std::vector<const ScenarioEvent*> ops;  // adds + deletes, file order
    std::size_t line = 0;
  };
  std::vector<Group> groups;
  {
    std::map<std::pair<TimeNs, NodeRun*>, std::size_t> group_of;
    for (const ScenarioEvent& e : sc.events) {
      if (e.kind != ScenarioEvent::Kind::kAddClass &&
          e.kind != ScenarioEvent::Kind::kDeleteClass) {
        continue;
      }
      NodeRun* nr = &node_run(e.node);
      const auto [it, fresh] =
          group_of.try_emplace({e.at, nr}, groups.size());
      if (fresh) groups.push_back(Group{e.at, nr, {}, e.line});
      Group& g = groups[it->second];
      g.ops.push_back(&e);
      g.line = std::min(g.line, e.line);
    }
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const Group& a, const Group& b) {
                     return a.at != b.at ? a.at < b.at : a.line < b.line;
                   });

  auto run_group = [&classes_rejected](
                       NodeRun& nr,
                       const std::vector<const ScenarioEvent*>& ops) {
    // Deletes first: they free admission capacity the adds then claim.
    std::vector<const ScenarioEvent*> ordered = ops;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const ScenarioEvent* a, const ScenarioEvent* b) {
                       return (a->kind == ScenarioEvent::Kind::kDeleteClass) >
                              (b->kind == ScenarioEvent::Kind::kDeleteClass);
                     });
    auto apply_one = [&](const ScenarioEvent& e,
                         std::map<std::string, ClassId>& view, Hfsc::Txn& txn,
                         std::vector<std::pair<std::string, ClassId>>* adds)
        -> bool {
      if (e.kind == ScenarioEvent::Kind::kDeleteClass) {
        const auto it = view.find(e.target);
        if (it == view.end()) return true;  // creation was rejected earlier
        txn.delete_class(it->second);
        view.erase(it);
        return true;
      }
      ClassId parent = kRootClass;
      if (e.cls.parent != "root") {
        const auto it = view.find(e.cls.parent);
        if (it == view.end()) return false;  // parent rejected: cascade
        parent = it->second;
      }
      const ClassId id = txn.add_class(parent, e.cls.config());
      if (e.cls.qlimit != 0) txn.set_queue_limit(id, e.cls.qlimit);
      view[e.cls.name] = id;
      adds->emplace_back(e.cls.name, id);
      return true;
    };
    auto bookkeep = [&nr](const std::string& name, ClassId id) {
      auto& hist = nr.history[name];
      // Static names have a history from the start.
      if (hist.empty()) nr.at_names.push_back(name);
      if (std::find(hist.begin(), hist.end(), id) == hist.end()) {
        hist.push_back(id);
      }
    };

    // One transaction over `batch` against the live view.  Returns false
    // (nothing changed) when admission control refuses the commit;
    // otherwise adopts the new view and counts each cascaded add (its
    // parent was rejected earlier, so it yields no op) as one rejection.
    auto commit = [&](const std::vector<const ScenarioEvent*>& batch) {
      Hfsc::Txn txn = nr.hfsc->begin();
      std::map<std::string, ClassId> view = nr.live;
      std::vector<std::pair<std::string, ClassId>> adds;
      std::uint64_t cascades = 0;
      for (const ScenarioEvent* e : batch) {
        if (!apply_one(*e, view, txn, &adds)) ++cascades;
      }
      if (txn.num_ops() == 0) {
        txn.rollback();
      } else {
        try {
          txn.commit();
        } catch (const Error& err) {
          if (err.code() != Errc::kAdmissionRejected) throw;
          txn.rollback();
          return false;
        }
      }
      nr.live = std::move(view);
      for (auto& [name, id] : adds) bookkeep(name, id);
      classes_rejected += cascades;
      return true;
    };
    if (commit(ordered)) return;
    // Refused as a batch: each mutation gets its own verdict.
    for (const ScenarioEvent* e : ordered) {
      if (!commit({e})) ++classes_rejected;
    }
  };

  for (Group& g : groups) {
    NodeRun* nr = g.nr;
    auto ops = g.ops;
    ev.schedule(g.at, [&run_group, nr, ops](TimeNs) {
      run_group(*nr, ops);
    });
  }
  // Timed source starts run after any class group at the same instant
  // (scheduled later at equal time => later in tie-break order), and look
  // the class id up at fire time so they bind to the live incarnation.
  for (const ScenarioSource& s : timed_srcs) {
    NodeRun& nr = node_run(s.node);
    ev.schedule(s.start, [s, &nr, &topo, &sources_skipped](TimeNs) {
      const auto it = nr.live.find(s.cls);
      if (it == nr.live.end()) {
        ++sources_skipped;  // class rejected or already deleted
        return;
      }
      install_source(s, it->second, topo, nr.idx);
    });
  }

  topo.run(sc.duration);

  if (!opts.checkpoint_path.empty()) {
    std::ofstream ck(opts.checkpoint_path);
    if (!ck) {
      throw std::runtime_error("cannot write checkpoint: " +
                               opts.checkpoint_path);
    }
    checkpoint(*runs.front().hfsc, ck);
  }

  // ---- gather -------------------------------------------------------------
  out.duration = sc.duration;
  out.scheduler = std::string(topo.scheduler(runs.front().idx).name());
  out.classes_rejected = classes_rejected;
  if (sources_skipped != 0) {
    out.notes.push_back(std::to_string(sources_skipped) +
                        " timed source start(s) skipped (class not live)");
  }
  if (runs.front().hfsc != nullptr) {
    out.state_digest = state_digest(*runs.front().hfsc);
  }

  for (std::size_t ni = 0; ni < sc.nodes.size(); ++ni) {
    NodeRun& nr = runs[ni];
    const HierarchySpec& spec = sc.nodes[ni].spec;
    Scheduler& sched = topo.scheduler(nr.idx);
    const FlowTracker& t = topo.tracker(nr.idx);

    auto report = [&](const std::string& cname) {
      const auto hit = nr.history.find(cname);
      if (hit == nr.history.end() || hit->second.empty()) return;  // dropped
      const std::vector<ClassId>& ids = hit->second;
      const bool leaf = spec.is_leaf(cname) ||
                        nr.ids.find(cname) == nr.ids.end();
      const bool any_data = std::any_of(ids.begin(), ids.end(),
                                        [&](ClassId id) { return t.has(id); });
      if (!leaf && !any_data) return;  // interior class: no direct traffic
      ScenarioResult::PerClass pc;
      pc.name = cname;
      pc.node = sc.nodes[ni].name;
      SampleSet delay_ns;
      for (ClassId id : ids) {
        pc.packets += t.packets(id);
        pc.bytes += t.bytes(id);
        pc.dropped += sched.class_drops(id);
        pc.rate_mbps += t.rate_mbps(id, 0, sc.duration);
        for (double v : t.delay_samples_ns(id).samples()) delay_ns.add(v);
      }
      pc.mean_delay_ms = delay_ns.mean() / 1e6;
      pc.p99_delay_ms = delay_ns.quantile(0.99) / 1e6;
      pc.max_delay_ms = delay_ns.max() / 1e6;
      std::vector<double> ms;
      ms.reserve(delay_ns.samples().size());
      for (double v : delay_ns.samples()) ms.push_back(v / 1e6);
      pc.hist = delay_histogram(ms);
      out.per_class.push_back(std::move(pc));
    };
    for (const HierarchySpec::ClassSpec& c : spec.classes) report(c.name);
    for (const std::string& cname : nr.at_names) report(cname);

    ScenarioResult::NodeStats ns;
    ns.name = sc.nodes[ni].name;
    Link& link = topo.link(nr.idx);
    ns.link_utilization = static_cast<double>(link.busy_time()) /
                          static_cast<double>(sc.duration);
    ns.offered = topo.offered(nr.idx);
    ns.sent = link.packets_sent();
    std::set<ClassId> seen_ids;
    for (const auto& [cname, ids] : nr.history) {
      for (ClassId id : ids) {
        if (seen_ids.insert(id).second) ns.dropped += sched.class_drops(id);
      }
    }
    ns.rejected = sched.counters().rejected_packets();
    ns.backlog = sched.backlog_packets() + link.in_service();
    ns.peak_backlog_pkts = topo.peak_backlog_packets(nr.idx);
    ns.peak_backlog_bytes = topo.peak_backlog_bytes(nr.idx);
    out.nodes.push_back(std::move(ns));
  }

  for (std::size_t ri = 0; ri < sc.routes.size(); ++ri) {
    ScenarioResult::EndToEnd ee;
    ee.cls = sc.routes[ri].cls;
    ee.route = sc.routes[ri].nodes;
    ee.delivered = topo.delivered(ri);
    ee.bytes = topo.delivered_bytes(ri);
    const SampleSet& d = topo.e2e_delay_ms(ri);
    ee.mean_delay_ms = d.mean();
    ee.p99_delay_ms = d.quantile(0.99);
    ee.max_delay_ms = d.max();
    ee.hist = delay_histogram(d.samples());
    out.e2e.push_back(std::move(ee));
  }

  out.link_utilization = out.nodes.front().link_utilization;
  return out;
}

CompareResult run_compare(const Scenario& sc,
                          const std::vector<SchedulerKind>& kinds,
                          const ScenarioRunOptions& opts) {
  CompareResult out;
  for (SchedulerKind kind : kinds) {
    ScenarioRunOptions per_run = opts;
    per_run.scheduler = kind;
    per_run.checkpoint_path.clear();  // H-FSC-only; ambiguous across runs
    out.runs.push_back(run_scenario(sc, per_run));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Conservation totals

namespace {

std::uint64_t total(const std::vector<ScenarioResult::NodeStats>& nodes,
                    std::uint64_t ScenarioResult::NodeStats::*term) {
  std::uint64_t v = 0;
  for (const ScenarioResult::NodeStats& n : nodes) v += n.*term;
  return v;
}

}  // namespace

std::uint64_t ScenarioResult::offered() const noexcept {
  return total(nodes, &NodeStats::offered);
}
std::uint64_t ScenarioResult::sent() const noexcept {
  return total(nodes, &NodeStats::sent);
}
std::uint64_t ScenarioResult::dropped() const noexcept {
  return total(nodes, &NodeStats::dropped);
}
std::uint64_t ScenarioResult::rejected() const noexcept {
  return total(nodes, &NodeStats::rejected);
}
std::uint64_t ScenarioResult::backlog() const noexcept {
  return total(nodes, &NodeStats::backlog);
}
bool ScenarioResult::conserved() const noexcept {
  return std::all_of(nodes.begin(), nodes.end(),
                     [](const NodeStats& n) { return n.conserved(); });
}

// ---------------------------------------------------------------------------
// Rendering

namespace {

using ClassRows = std::vector<const ScenarioResult::PerClass*>;

// The per-class rows grouped by node name in one pass, each group in
// per_class order, so a report renders in time linear in its rows.
std::unordered_map<std::string_view, ClassRows> rows_by_node(
    const std::vector<ScenarioResult::PerClass>& per_class) {
  std::unordered_map<std::string_view, ClassRows> out;
  for (const ScenarioResult::PerClass& pc : per_class) {
    out[pc.node].push_back(&pc);
  }
  return out;
}

}  // namespace

std::string CompareResult::to_table() const {
  // One row per class that appeared in any run; a family that dropped the
  // class shows "-".  Classes keep first-appearance order, labelled
  // "node.class" when a run spans several nodes.
  const bool multi =
      !runs.empty() && runs.front().nodes.size() > 1;
  std::vector<std::string> headers = {"class"};
  for (const ScenarioResult& r : runs) {
    headers.push_back(r.scheduler + " mean_ms");
    headers.push_back(r.scheduler + " p99_ms");
    headers.push_back(r.scheduler + " rate_mbps");
    headers.push_back(r.scheduler + " drops");
  }
  std::vector<std::vector<std::string>> rows;
  std::unordered_map<std::string, std::size_t> row_of;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    for (const ScenarioResult::PerClass& pc : runs[k].per_class) {
      const std::string name = multi ? pc.node + "." + pc.name : pc.name;
      const auto [at, fresh] = row_of.try_emplace(name, rows.size());
      if (fresh) {
        rows.emplace_back(headers.size(), "-");
        rows.back().front() = name;
      }
      std::string* cells = &rows[at->second][1 + 4 * k];
      if (cells[0] != "-") continue;  // the run's first row of that name
      cells[0] = TablePrinter::fmt(pc.mean_delay_ms);
      cells[1] = TablePrinter::fmt(pc.p99_delay_ms);
      cells[2] = TablePrinter::fmt(pc.rate_mbps, 2);
      cells[3] = std::to_string(pc.dropped);
    }
  }
  TablePrinter table(headers);
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  std::ostringstream os;
  os << table.to_string();
  for (const ScenarioResult& r : runs) {
    os << r.scheduler << " link utilization: "
       << TablePrinter::fmt(r.link_utilization * 100.0, 1) << "%\n";
  }
  return os.str();
}

std::string ScenarioResult::to_table() const {
  auto class_table = [](const ClassRows& rows) {
    TablePrinter table({"class", "packets", "bytes", "dropped", "mean_ms",
                        "p99_ms", "max_ms", "rate_mbps"});
    for (const PerClass* pc : rows) {
      table.add_row({pc->name, std::to_string(pc->packets),
                     std::to_string(pc->bytes), std::to_string(pc->dropped),
                     TablePrinter::fmt(pc->mean_delay_ms),
                     TablePrinter::fmt(pc->p99_delay_ms),
                     TablePrinter::fmt(pc->max_delay_ms),
                     TablePrinter::fmt(pc->rate_mbps, 2)});
    }
    return table.to_string();
  };
  std::ostringstream os;
  if (nodes.size() <= 1 && e2e.empty()) {
    // The historical single-link format, byte-for-byte (pinned by the
    // engine-equivalence tests): every class, whatever its node.
    ClassRows all;
    for (const PerClass& pc : per_class) all.push_back(&pc);
    os << class_table(all);
    os << "link utilization: "
       << TablePrinter::fmt(link_utilization * 100.0, 1) << "%\n";
    return os.str();
  }
  std::unordered_map<std::string_view, ClassRows> by_node =
      rows_by_node(per_class);
  for (const NodeStats& ns : nodes) {
    os << "node " << ns.name << "\n";
    os << class_table(by_node[ns.name]);
    os << "link utilization: "
       << TablePrinter::fmt(ns.link_utilization * 100.0, 1)
       << "%  conservation: offered " << ns.offered << " = sent " << ns.sent
       << " + dropped " << ns.dropped << " + rejected " << ns.rejected
       << " + backlog " << ns.backlog
       << (ns.conserved() ? "" : "  [VIOLATED]") << "\n\n";
  }
  if (!e2e.empty()) {
    os << "end-to-end\n";
    TablePrinter table({"class", "route", "delivered", "bytes", "mean_ms",
                        "p99_ms", "max_ms"});
    for (const EndToEnd& ee : e2e) {
      std::string route;
      for (const std::string& n : ee.route) {
        if (!route.empty()) route += ">";
        route += n;
      }
      table.add_row({ee.cls, route, std::to_string(ee.delivered),
                     std::to_string(ee.bytes),
                     TablePrinter::fmt(ee.mean_delay_ms),
                     TablePrinter::fmt(ee.p99_delay_ms),
                     TablePrinter::fmt(ee.max_delay_ms)});
    }
    os << table.to_string();
  }
  return os.str();
}

std::string ScenarioResult::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"hfsc-sim-report-v1\"";
  os << ",\"scheduler\":\"" << json_escape(scheduler) << "\"";
  os << ",\"duration_ns\":" << duration;
  os << ",\"link_utilization\":";
  json_num(os, link_utilization);
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(state_digest));
    os << ",\"state_digest\":\"" << buf << "\"";
  }
  os << ",\"classes_rejected\":" << classes_rejected;
  os << ",\"conserved\":" << (conserved() ? "true" : "false");
  os << ",\"totals\":{\"offered\":" << offered() << ",\"sent\":" << sent()
     << ",\"dropped\":" << dropped() << ",\"rejected\":" << rejected()
     << ",\"backlog\":" << backlog() << "}";
  os << ",\"hist_edges_ms\":[";
  const auto& edges = delay_hist_edges_ms();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i) os << ',';
    json_num(os, edges[i]);
  }
  os << "]";
  os << ",\"nodes\":[";
  std::unordered_map<std::string_view, ClassRows> by_node =
      rows_by_node(per_class);
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    const NodeStats& ns = nodes[ni];
    if (ni) os << ',';
    os << "{\"name\":\"" << json_escape(ns.name) << "\"";
    os << ",\"link_utilization\":";
    json_num(os, ns.link_utilization);
    os << ",\"offered\":" << ns.offered << ",\"sent\":" << ns.sent
       << ",\"dropped\":" << ns.dropped << ",\"rejected\":" << ns.rejected
       << ",\"backlog\":" << ns.backlog
       << ",\"peak_backlog_pkts\":" << ns.peak_backlog_pkts
       << ",\"peak_backlog_bytes\":" << ns.peak_backlog_bytes
       << ",\"conserved\":" << (ns.conserved() ? "true" : "false");
    os << ",\"classes\":[";
    bool first = true;
    for (const PerClass* row : by_node[ns.name]) {
      const PerClass& pc = *row;
      if (!first) os << ',';
      first = false;
      os << "{\"name\":\"" << json_escape(pc.name) << "\""
         << ",\"packets\":" << pc.packets << ",\"bytes\":" << pc.bytes
         << ",\"dropped\":" << pc.dropped;
      os << ",\"mean_delay_ms\":";
      json_num(os, pc.mean_delay_ms);
      os << ",\"p99_delay_ms\":";
      json_num(os, pc.p99_delay_ms);
      os << ",\"max_delay_ms\":";
      json_num(os, pc.max_delay_ms);
      os << ",\"rate_mbps\":";
      json_num(os, pc.rate_mbps);
      os << ",\"hist\":";
      json_hist(os, pc.hist);
      os << "}";
    }
    os << "]}";
  }
  os << "]";
  os << ",\"e2e\":[";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const EndToEnd& ee = e2e[i];
    if (i) os << ',';
    os << "{\"class\":\"" << json_escape(ee.cls) << "\",\"route\":[";
    for (std::size_t j = 0; j < ee.route.size(); ++j) {
      if (j) os << ',';
      os << '"' << json_escape(ee.route[j]) << '"';
    }
    os << "],\"delivered\":" << ee.delivered << ",\"bytes\":" << ee.bytes;
    os << ",\"mean_delay_ms\":";
    json_num(os, ee.mean_delay_ms);
    os << ",\"p99_delay_ms\":";
    json_num(os, ee.p99_delay_ms);
    os << ",\"max_delay_ms\":";
    json_num(os, ee.max_delay_ms);
    if (ee.bound_ms >= 0) {
      // Static end-to-end delay bound from the analyzer (attached by
      // tools/hfsc_sim); additive — readers of the v1 schema ignore it.
      os << ",\"bound_ms\":";
      json_num(os, ee.bound_ms);
    }
    os << ",\"hist\":";
    json_hist(os, ee.hist);
    os << "}";
  }
  os << "]";
  os << ",\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(notes[i]) << '"';
  }
  os << "]}";
  return os.str();
}

std::string CompareResult::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"hfsc-sim-compare-v1\",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i) os << ',';
    os << runs[i].to_json();
  }
  os << "]}";
  return os.str();
}

}  // namespace hfsc
