// Traffic sources (system S11 in DESIGN.md).
//
// Each source installs itself on an EventQueue and emits packets into a
// Link.  The parameter sets mirror the workloads the paper's evaluation
// discusses: low-rate small-packet audio, frame-based video, greedy FTP,
// plus Poisson and trace-driven generators for the property tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace hfsc {

// Constant bit-rate: one `pkt_len` packet every pkt_len/rate seconds,
// from `start` until `stop`.
class CbrSource {
 public:
  CbrSource(ClassId cls, RateBps rate, Bytes pkt_len, TimeNs start,
            TimeNs stop);
  void install(EventQueue& ev, Link& link);

 private:
  void emit(EventQueue& ev, Link& link, TimeNs t);

  ClassId cls_;
  Bytes pkt_len_;
  TimeNs interval_;
  TimeNs start_;
  TimeNs stop_;
  std::uint64_t seq_ = 0;
};

// Poisson arrivals of fixed-size packets at `mean_rate` bytes/s.
class PoissonSource {
 public:
  PoissonSource(ClassId cls, RateBps mean_rate, Bytes pkt_len, TimeNs start,
                TimeNs stop, std::uint64_t seed);
  void install(EventQueue& ev, Link& link);

 private:
  void emit(EventQueue& ev, Link& link, TimeNs t);

  ClassId cls_;
  Bytes pkt_len_;
  double mean_gap_ns_;
  TimeNs start_;
  TimeNs stop_;
  Rng rng_;
  std::uint64_t seq_ = 0;
};

// On-off source: CBR at `peak_rate` during on periods (mean `mean_on`),
// silent during off periods (mean `mean_off`).  Both period lengths are
// exponential, or, with the `alpha` constructor, Pareto of shape alpha
// (heavy tails — the self-similar burst structure measured in real
// traffic).  The Pareto scale keeps the requested means:
// xm = mean * (alpha - 1) / alpha (alpha > 1).
class OnOffSource {
 public:
  OnOffSource(ClassId cls, RateBps peak_rate, Bytes pkt_len, TimeNs mean_on,
              TimeNs mean_off, TimeNs start, TimeNs stop, std::uint64_t seed);
  OnOffSource(ClassId cls, RateBps peak_rate, Bytes pkt_len, TimeNs mean_on,
              TimeNs mean_off, double alpha, TimeNs start, TimeNs stop,
              std::uint64_t seed);
  void install(EventQueue& ev, Link& link);

 private:
  TimeNs draw(double mean) noexcept;
  void emit(EventQueue& ev, Link& link, TimeNs t);

  ClassId cls_;
  Bytes pkt_len_;
  TimeNs interval_;
  double mean_on_;
  double mean_off_;
  double alpha_;  // 0: exponential periods
  TimeNs start_;
  TimeNs stop_;
  Rng rng_;
  TimeNs on_until_ = 0;
  std::uint64_t seq_ = 0;
};

// Always-backlogged source (greedy FTP): keeps `window` packets queued at
// the link by refilling on every departure of its own class.
class GreedySource {
 public:
  GreedySource(ClassId cls, Bytes pkt_len, std::size_t window, TimeNs start,
               TimeNs stop = kTimeInfinity);
  void install(EventQueue& ev, Link& link);

 private:
  ClassId cls_;
  Bytes pkt_len_;
  std::size_t window_;
  TimeNs start_;
  TimeNs stop_;
  std::uint64_t seq_ = 0;
};

// Frame-based video: every 1/fps seconds a frame of (mean +- jitter)
// bytes, cut into MTU-sized packets emitted back to back.  Exercises the
// paper's "per-frame delay guarantee" use of the (u, d, r) triple, with
// u = max frame size.
class VideoSource {
 public:
  VideoSource(ClassId cls, double fps, Bytes mean_frame, Bytes max_frame,
              Bytes mtu, TimeNs start, TimeNs stop, std::uint64_t seed);
  void install(EventQueue& ev, Link& link);

 private:
  void emit_frame(EventQueue& ev, Link& link, TimeNs t);

  ClassId cls_;
  TimeNs frame_interval_;
  Bytes mean_frame_;
  Bytes max_frame_;
  Bytes mtu_;
  TimeNs start_;
  TimeNs stop_;
  Rng rng_;
  std::uint64_t seq_ = 0;
};

// TCP-like window feedback source: keeps a congestion window of packets
// in flight at the link (acked by its own departures), grows the window
// by one packet per delivered window (additive increase) and halves it
// whenever its class records a new drop (multiplicative decrease,
// observed through Scheduler::class_drops).  Give the class a qlimit to
// exercise the feedback loop; without drops the window opens to
// `max_window` and the source behaves like GreedySource.
class TcpishSource {
 public:
  TcpishSource(ClassId cls, Bytes pkt_len, std::size_t max_window,
               TimeNs start, TimeNs stop = kTimeInfinity);
  void install(EventQueue& ev, Link& link);

 private:
  void top_up(Link& link, TimeNs t);

  ClassId cls_;
  Bytes pkt_len_;
  std::size_t max_window_;
  TimeNs start_;
  TimeNs stop_;
  std::size_t cwnd_ = 1;
  std::size_t in_flight_ = 0;
  std::size_t acked_ = 0;
  std::uint64_t last_drops_ = 0;
  std::uint64_t seq_ = 0;
};

// Replays an explicit (time, len) schedule; the workhorse of the unit
// tests and the Fig. 2 / Fig. 3 experiments.
class TraceSource {
 public:
  struct Item {
    TimeNs t;
    Bytes len;
  };
  TraceSource(ClassId cls, std::vector<Item> items);
  void install(EventQueue& ev, Link& link);

 private:
  ClassId cls_;
  std::vector<Item> items_;
  std::uint64_t seq_ = 0;
};

}  // namespace hfsc
