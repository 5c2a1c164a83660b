#include "sim/sources.hpp"

#include <algorithm>
#include <cassert>

namespace hfsc {

// ---------------------------------------------------------------- CBR

CbrSource::CbrSource(ClassId cls, RateBps rate, Bytes pkt_len, TimeNs start,
                     TimeNs stop)
    : cls_(cls), pkt_len_(pkt_len), interval_(seg_y2x(pkt_len, rate)),
      start_(start), stop_(stop) {
  assert(rate > 0 && pkt_len > 0);
}

void CbrSource::install(EventQueue& ev, Link& link) {
  ev.schedule(start_, [this, &ev, &link](TimeNs t) { emit(ev, link, t); });
}

void CbrSource::emit(EventQueue& ev, Link& link, TimeNs t) {
  if (t >= stop_) return;
  link.on_arrival(t, Packet{cls_, pkt_len_, t, seq_++});
  ev.schedule(t + interval_,
              [this, &ev, &link](TimeNs t2) { emit(ev, link, t2); });
}

// ------------------------------------------------------------- Poisson

PoissonSource::PoissonSource(ClassId cls, RateBps mean_rate, Bytes pkt_len,
                             TimeNs start, TimeNs stop, std::uint64_t seed)
    : cls_(cls), pkt_len_(pkt_len),
      mean_gap_ns_(static_cast<double>(seg_y2x(pkt_len, mean_rate))),
      start_(start), stop_(stop), rng_(seed) {}

void PoissonSource::install(EventQueue& ev, Link& link) {
  const TimeNs first =
      start_ + static_cast<TimeNs>(rng_.exponential(mean_gap_ns_));
  ev.schedule(first, [this, &ev, &link](TimeNs t) { emit(ev, link, t); });
}

void PoissonSource::emit(EventQueue& ev, Link& link, TimeNs t) {
  if (t >= stop_) return;
  link.on_arrival(t, Packet{cls_, pkt_len_, t, seq_++});
  const TimeNs next = t + 1 + static_cast<TimeNs>(rng_.exponential(mean_gap_ns_));
  ev.schedule(next, [this, &ev, &link](TimeNs t2) { emit(ev, link, t2); });
}

// -------------------------------------------------------------- On-off

OnOffSource::OnOffSource(ClassId cls, RateBps peak_rate, Bytes pkt_len,
                         TimeNs mean_on, TimeNs mean_off, TimeNs start,
                         TimeNs stop, std::uint64_t seed)
    : OnOffSource(cls, peak_rate, pkt_len, mean_on, mean_off, 0.0, start,
                  stop, seed) {}

OnOffSource::OnOffSource(ClassId cls, RateBps peak_rate, Bytes pkt_len,
                         TimeNs mean_on, TimeNs mean_off, double alpha,
                         TimeNs start, TimeNs stop, std::uint64_t seed)
    : cls_(cls), pkt_len_(pkt_len), interval_(seg_y2x(pkt_len, peak_rate)),
      mean_on_(static_cast<double>(mean_on)),
      mean_off_(static_cast<double>(mean_off)), alpha_(alpha), start_(start),
      stop_(stop), rng_(seed) {
  assert(alpha_ == 0.0 || alpha_ > 1.0);
}

TimeNs OnOffSource::draw(double mean) noexcept {
  if (alpha_ == 0.0) return static_cast<TimeNs>(rng_.exponential(mean));
  // Pareto(alpha, xm) has mean alpha*xm/(alpha-1); invert for xm so the
  // configured mean is kept while the tail stays power-law.
  const double xm = mean * (alpha_ - 1.0) / alpha_;
  return static_cast<TimeNs>(rng_.pareto(alpha_, xm));
}

void OnOffSource::install(EventQueue& ev, Link& link) {
  ev.schedule(start_, [this, &ev, &link](TimeNs t) {
    on_until_ = t + draw(mean_on_);
    emit(ev, link, t);
  });
}

void OnOffSource::emit(EventQueue& ev, Link& link, TimeNs t) {
  if (t >= stop_) return;
  if (t >= on_until_) {
    // Off period, then a fresh on period.
    const TimeNs wake = t + 1 + draw(mean_off_);
    ev.schedule(wake, [this, &ev, &link](TimeNs t2) {
      on_until_ = t2 + draw(mean_on_);
      emit(ev, link, t2);
    });
    return;
  }
  link.on_arrival(t, Packet{cls_, pkt_len_, t, seq_++});
  ev.schedule(t + interval_,
              [this, &ev, &link](TimeNs t2) { emit(ev, link, t2); });
}

// -------------------------------------------------------------- Greedy

GreedySource::GreedySource(ClassId cls, Bytes pkt_len, std::size_t window,
                           TimeNs start, TimeNs stop)
    : cls_(cls), pkt_len_(pkt_len), window_(window), start_(start),
      stop_(stop) {
  assert(window_ > 0);
}

void GreedySource::install(EventQueue& ev, Link& link) {
  // Refill on our own departures so the class is backlogged from start_
  // until stop_.
  link.add_departure_hook([this, &link](TimeNs t, const Packet& p) {
    if (p.cls == cls_ && t >= start_ && t < stop_) {
      link.on_arrival(t, Packet{cls_, pkt_len_, t, seq_++});
    }
  });
  ev.schedule(start_, [this, &link](TimeNs t) {
    for (std::size_t i = 0; i < window_; ++i) {
      link.on_arrival(t, Packet{cls_, pkt_len_, t, seq_++});
    }
  });
}

// --------------------------------------------------------------- Video

VideoSource::VideoSource(ClassId cls, double fps, Bytes mean_frame,
                         Bytes max_frame, Bytes mtu, TimeNs start, TimeNs stop,
                         std::uint64_t seed)
    : cls_(cls),
      frame_interval_(static_cast<TimeNs>(static_cast<double>(kNsPerSec) / fps)),
      mean_frame_(mean_frame), max_frame_(max_frame), mtu_(mtu), start_(start),
      stop_(stop), rng_(seed) {
  assert(mean_frame_ <= max_frame_ && mtu_ > 0);
}

void VideoSource::install(EventQueue& ev, Link& link) {
  ev.schedule(start_,
              [this, &ev, &link](TimeNs t) { emit_frame(ev, link, t); });
}

void VideoSource::emit_frame(EventQueue& ev, Link& link, TimeNs t) {
  if (t >= stop_) return;
  // Frame sizes uniform in [mean/2, capped Pareto tail] around the mean;
  // heavy-ish tail bounded by max_frame (I frames vs B/P frames).
  const double raw = rng_.pareto(3.0, static_cast<double>(mean_frame_) * 0.7);
  Bytes frame = std::min<Bytes>(static_cast<Bytes>(raw), max_frame_);
  frame = std::max<Bytes>(frame, mean_frame_ / 4);
  while (frame > 0) {
    const Bytes chunk = std::min(frame, mtu_);
    link.on_arrival(t, Packet{cls_, chunk, t, seq_++});
    frame -= chunk;
  }
  ev.schedule(t + frame_interval_,
              [this, &ev, &link](TimeNs t2) { emit_frame(ev, link, t2); });
}

// -------------------------------------------------------------- Tcpish

TcpishSource::TcpishSource(ClassId cls, Bytes pkt_len, std::size_t max_window,
                           TimeNs start, TimeNs stop)
    : cls_(cls), pkt_len_(pkt_len), max_window_(max_window), start_(start),
      stop_(stop) {
  assert(max_window_ > 0 && pkt_len_ > 0);
}

void TcpishSource::install(EventQueue& ev, Link& link) {
  link.add_departure_hook([this, &link](TimeNs t, const Packet& p) {
    if (p.cls != cls_) return;
    if (in_flight_ > 0) --in_flight_;
    if (t < start_ || t >= stop_) return;
    // New drops since the last departure mean the window overran the
    // queue: halve.  Otherwise a fully delivered window grows it by one.
    const std::uint64_t drops = link.scheduler().class_drops(cls_);
    if (drops > last_drops_) {
      // Dropped packets never depart, so they must leave the in-flight
      // account here or the effective window shrinks forever.
      const std::uint64_t lost = drops - last_drops_;
      in_flight_ -= static_cast<std::size_t>(
          lost < in_flight_ ? lost : in_flight_);
      last_drops_ = drops;
      cwnd_ = cwnd_ > 1 ? cwnd_ / 2 : 1;
      acked_ = 0;
    } else if (++acked_ >= cwnd_) {
      acked_ = 0;
      if (cwnd_ < max_window_) ++cwnd_;
    }
    top_up(link, t);
  });
  ev.schedule(start_, [this, &link](TimeNs t) { top_up(link, t); });
}

void TcpishSource::top_up(Link& link, TimeNs t) {
  while (in_flight_ < cwnd_) {
    ++in_flight_;
    link.on_arrival(t, Packet{cls_, pkt_len_, t, seq_++});
  }
}

// --------------------------------------------------------------- Trace

TraceSource::TraceSource(ClassId cls, std::vector<Item> items)
    : cls_(cls), items_(std::move(items)) {}

void TraceSource::install(EventQueue& ev, Link& link) {
  for (const Item& it : items_) {
    ev.schedule(it.t, [this, &link, len = it.len](TimeNs t) {
      link.on_arrival(t, Packet{cls_, len, t, seq_++});
    });
  }
}

}  // namespace hfsc
