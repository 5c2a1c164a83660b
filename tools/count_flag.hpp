// Strict parsing of the command-line tools' count flags ("--name=N").
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>

// The value of count flag `arg` ("--name=N"): strict decimal (no sign,
// no base prefix, nothing after the digits), at least 1 and at most
// `max`; strtoul would take "-1" as 2^64-1 and let a cast wrap it.  A bad
// value prints "error: --name needs <what>" and yields nullopt.
inline std::optional<std::uint64_t> parse_count(
    const char* arg, std::uint64_t max,
    const char* what = "a positive integer") {
  const char* const digits = std::strchr(arg, '=') + 1;
  const char* const end = digits + std::strlen(digits);
  std::uint64_t n = 0;
  const auto r = std::from_chars(digits, end, n);
  if (r.ec != std::errc{} || r.ptr != end || n == 0 || n > max) {
    std::fprintf(stderr, "error: %.*s needs %s\n",
                 static_cast<int>(digits - 1 - arg), arg, what);
    return std::nullopt;
  }
  return n;
}
