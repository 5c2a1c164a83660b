// Strict parsing of the command-line tools' numeric flags ("--name=N").
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>

// Prints "error: --name needs <what>" for flag `arg` ("--name=...").
inline std::nullopt_t reject_flag(const char* arg, const char* what) {
  std::fprintf(stderr, "error: %.*s needs %s\n",
               static_cast<int>(std::strchr(arg, '=') - arg), arg, what);
  return std::nullopt;
}

// The value of count flag `arg` ("--name=N"): strict decimal (no sign,
// no base prefix, nothing after the digits), at least 1 and at most
// `max`; strtoul would take "-1" as 2^64-1 and let a cast wrap it.  A bad
// value prints an error and yields nullopt.
inline std::optional<std::uint64_t> parse_count(const char* arg,
                                                std::uint64_t max) {
  const char* const digits = std::strchr(arg, '=') + 1;
  const char* const end = digits + std::strlen(digits);
  std::uint64_t n = 0;
  const auto r = std::from_chars(digits, end, n);
  if (r.ec != std::errc{} || r.ptr != end || n == 0 || n > max) {
    return reject_flag(arg, "a positive integer");
  }
  return n;
}

// The value of seed flag `arg` ("--seed=N"): any 64-bit value, in strict
// decimal or as 0x hex (the form the chaos summary prints it in).  An
// empty value, a sign, whitespace, trailing text or a value past 2^64-1
// prints an error and yields nullopt instead of wrapping.
inline std::optional<std::uint64_t> parse_seed(const char* arg) {
  const char* digits = std::strchr(arg, '=') + 1;
  const char* const end = digits + std::strlen(digits);
  int base = 10;
  if (end - digits > 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits += 2;
    base = 16;
  }
  std::uint64_t n = 0;
  const auto r = std::from_chars(digits, end, n, base);
  if (r.ec != std::errc{} || r.ptr != end) {
    return reject_flag(arg, "a decimal or 0x-hex integer below 2^64");
  }
  return n;
}
