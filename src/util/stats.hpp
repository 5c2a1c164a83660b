// Measurement helpers: exact-percentile samples and time-windowed
// throughput series.  These implement the "measurement"
// substrate (S12 in DESIGN.md) used to regenerate the paper's figures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace hfsc {

// Stores every sample; supports exact quantiles.  Fine at simulation scale
// (millions of packets).
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const noexcept { return samples_.size(); }
  double mean() const noexcept;
  double max() const noexcept;
  double min() const noexcept;
  // q in [0, 1]; nearest-rank on the sorted samples.  Returns 0 when empty.
  double quantile(double q) const;

  // Raw samples in insertion order (histogram builders, set merging).
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

// Accumulates bytes into fixed-width wall-clock windows; yields a
// throughput-versus-time series (the paper's link-sharing plots).  Only
// windows that received an add() are stored, so memory grows with the
// packets recorded, not with simulated time over the window width.
class WindowedThroughput {
 public:
  explicit WindowedThroughput(TimeNs window) : window_(window) {}

  void add(TimeNs t, Bytes len);

  TimeNs window() const noexcept { return window_; }
  // One past the last window that received an add(); windows before it
  // that received none hold 0 bytes.
  std::size_t num_windows() const noexcept {
    return windows_.empty() ? 0 : windows_.back().index + 1;
  }
  // Throws std::out_of_range for i >= num_windows().
  Bytes bytes_in_window(std::size_t i) const;

  // Average rate (bytes/s) over window i.
  double rate_bps(std::size_t i) const;

  // Average rate over wall-clock interval [t0, t1) computed from the
  // windows it covers (partial windows weighted by overlap).
  double rate_over(TimeNs t0, TimeNs t1) const;

 private:
  struct Window {
    std::size_t index;
    Bytes bytes;
  };
  TimeNs window_;
  std::vector<Window> windows_;  // ascending index
};

// Fixed-format table printer for the experiment binaries: pads columns and
// keeps the output grep-friendly.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  std::string to_string() const;

  static std::string fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hfsc
