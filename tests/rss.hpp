// Memory readings for the mutation fuzzers' per-mutant budgets: the
// budget is how far the process's high-water mark rises above the
// resident set a mutant started from, so each mutant is charged for its
// own peak.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>

namespace hfsc::testrss {

// The process's peak resident set so far, in KiB.
inline long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

// Current resident set in KiB, or -1 when /proc/self/statm is missing.
inline long rss_kib() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  if (!(statm >> size >> resident)) return -1;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

}  // namespace hfsc::testrss
