#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace hfsc {

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::max() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::min() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    auto& mut = const_cast<std::vector<double>&>(samples_);
    std::sort(mut.begin(), mut.end());
    sorted_ = true;
  }
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(idx, samples_.size() - 1)];
}

namespace {
// Orders a stored window before window index i (std::lower_bound).
constexpr auto kIndexBefore = [](const auto& w, std::size_t i) {
  return w.index < i;
};
}  // namespace

void WindowedThroughput::add(TimeNs t, Bytes len) {
  const std::size_t idx = static_cast<std::size_t>(t / window_);
  // Departures arrive in time order, so this is nearly always an append
  // or a bump of the last window; an earlier one is found by search.
  if (windows_.empty() || windows_.back().index < idx) {
    windows_.push_back({idx, len});
    return;
  }
  const auto it =
      std::lower_bound(windows_.begin(), windows_.end(), idx, kIndexBefore);
  if (it->index == idx) {
    it->bytes += len;
  } else {
    windows_.insert(it, {idx, len});
  }
}

Bytes WindowedThroughput::bytes_in_window(std::size_t i) const {
  if (i >= num_windows()) {
    throw std::out_of_range("WindowedThroughput: no window " +
                            std::to_string(i));
  }
  const auto it =
      std::lower_bound(windows_.begin(), windows_.end(), i, kIndexBefore);
  return it->index == i ? it->bytes : 0;
}

double WindowedThroughput::rate_bps(std::size_t i) const {
  return static_cast<double>(bytes_in_window(i)) *
         static_cast<double>(kNsPerSec) / static_cast<double>(window_);
}

double WindowedThroughput::rate_over(TimeNs t0, TimeNs t1) const {
  if (t1 <= t0) return 0.0;
  double total = 0.0;
  const std::size_t first = static_cast<std::size_t>(t0 / window_);
  const std::size_t last = static_cast<std::size_t>((t1 - 1) / window_);
  for (auto it = std::lower_bound(windows_.begin(), windows_.end(), first,
                                  kIndexBefore);
       it != windows_.end() && it->index <= last; ++it) {
    const TimeNs w0 = static_cast<TimeNs>(it->index) * window_;
    const TimeNs w1 = w0 + window_;
    const TimeNs o0 = std::max(t0, w0);
    const TimeNs o1 = std::min(t1, w1);
    const double frac = static_cast<double>(o1 - o0) /
                        static_cast<double>(window_);
    total += static_cast<double>(it->bytes) * frac;
  }
  return total * static_cast<double>(kNsPerSec) /
         static_cast<double>(t1 - t0);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> width(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << cell;
      if (c + 1 < width.size()) {
        out << std::string(width[c] - cell.size() + 2, ' ');
      }
    }
    out << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace hfsc
