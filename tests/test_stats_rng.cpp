// Tests for util/rng.hpp and util/stats.hpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hfsc {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(7);
  Rng c2(8);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(123);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(10, 20);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 20u);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(99);
  double sum = 0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, ParetoAboveScale) {
  Rng r(4);
  for (int i = 0; i < 1000; ++i) ASSERT_GE(r.pareto(2.0, 10.0), 10.0);
}

TEST(SampleSet, QuantilesExact) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100 reversed
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, AddAfterQuantileStillWorks) {
  SampleSet s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
}

TEST(WindowedThroughput, AccumulatesIntoWindows) {
  WindowedThroughput w(msec(100));
  w.add(msec(10), 1000);
  w.add(msec(90), 1000);
  w.add(msec(150), 500);
  EXPECT_EQ(w.bytes_in_window(0), 2000u);
  EXPECT_EQ(w.bytes_in_window(1), 500u);
  // 2000 bytes in 100 ms = 20 kB/s.
  EXPECT_DOUBLE_EQ(w.rate_bps(0), 20000.0);
}

TEST(WindowedThroughput, RateOverInterval) {
  WindowedThroughput w(msec(100));
  w.add(msec(50), 1000);   // window 0
  w.add(msec(150), 3000);  // window 1
  // Over [0, 200 ms): 4000 bytes -> 20 kB/s.
  EXPECT_NEAR(w.rate_over(0, msec(200)), 20000.0, 1e-6);
  // Over window 1 only.
  EXPECT_NEAR(w.rate_over(msec(100), msec(200)), 30000.0, 1e-6);
  // Interval past the data.
  EXPECT_NEAR(w.rate_over(msec(300), msec(400)), 0.0, 1e-9);
}

TEST(WindowedThroughput, WindowsWithoutBytesReadZero) {
  WindowedThroughput w(msec(100));
  EXPECT_EQ(w.num_windows(), 0u);
  EXPECT_THROW((void)w.bytes_in_window(0), std::out_of_range);
  w.add(msec(50), 1000);   // window 0
  w.add(msec(450), 3000);  // window 4
  w.add(msec(250), 500);   // window 2, out of time order
  w.add(msec(260), 100);
  EXPECT_EQ(w.num_windows(), 5u);
  EXPECT_EQ(w.bytes_in_window(0), 1000u);
  EXPECT_EQ(w.bytes_in_window(1), 0u);
  EXPECT_EQ(w.bytes_in_window(2), 600u);
  EXPECT_EQ(w.bytes_in_window(3), 0u);
  EXPECT_EQ(w.bytes_in_window(4), 3000u);
  EXPECT_THROW((void)w.bytes_in_window(5), std::out_of_range);
  EXPECT_DOUBLE_EQ(w.rate_bps(1), 0.0);
  // Half of window 0, all of 1..3, half of 4 over 400 ms.
  EXPECT_NEAR(w.rate_over(msec(50), msec(450)), 2600.0 / 0.4, 1e-6);
}

// Resident set size of this process in bytes, or -1 when unknown.
long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  if (!(statm >> size >> resident)) return -1;
  return resident * sysconf(_SC_PAGESIZE);
}

TEST(WindowedThroughput, MemoryGrowsWithPacketsNotSimulatedTime) {
  // A 1 ns window over 20 ms of departures: one stored slot per window
  // from time 0 would be 20M slots (160 MB); 20k packets need 20k.
  const long before = resident_bytes();
  if (before < 0) GTEST_SKIP() << "no /proc/self/statm";
  WindowedThroughput w(1);
  for (TimeNs t = 0; t < msec(20); t += usec(1)) w.add(t, 1500);
  const long grown = resident_bytes() - before;
  EXPECT_EQ(w.num_windows(), static_cast<std::size_t>(msec(20) - usec(1) + 1));
  EXPECT_EQ(w.bytes_in_window(usec(1)), 1500u);
  EXPECT_EQ(w.bytes_in_window(usec(1) + 1), 0u);
  EXPECT_NEAR(w.rate_over(0, msec(20)), 1500.0 * 20000 / 0.02, 1e-3);
  EXPECT_LT(grown, 16L << 20) << "resident set grew by " << grown << " bytes";
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace hfsc
