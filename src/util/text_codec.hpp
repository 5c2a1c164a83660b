// The text codec behind the persistence formats: checkpoint images
// (core/checkpoint.cpp), journal op records (runtime/host.cpp) and the
// governor's state blob (runtime/governor.cpp).  All three are records of
// whitespace-separated tokens, one record per line.
//
// Writing appends std::to_chars output to a std::string.  Reading walks a
// std::string_view with a byte cursor and std::from_chars.  A numeral is
// strict unsigned decimal: a sign, a value that overflows the field's
// type, bytes glued to the digits ("12x") and an empty token are all
// malformed.  (libstdc++'s `>>` into an unsigned type accepts "-5" and
// wraps it modulo 2^64; none of the writers ever emits a sign.)
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/errors.hpp"

namespace hfsc {

namespace text_codec_detail {

// Upper bound on the bytes field `v` formats to: 20 digits hold any
// 64-bit integer, sign included.
template <class T>
std::size_t field_bound(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return 1;
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(sizeof(T) <= 8);
    return 20;
  } else {
    return std::string_view(v).size();
  }
}

// Formats one field at `p`: a bool as 0/1, any other integer in decimal,
// anything else as text.  Returns the end.
template <class T>
char* put_field(char* p, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    *p = v ? '1' : '0';
    return p + 1;
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_chars(p, p + 20, v).ptr;
  } else {
    const std::string_view s(v);
    return std::copy(s.begin(), s.end(), p);
  }
}

}  // namespace text_codec_detail

// Appends one record: the fields separated by single spaces, then '\n'.
// The record is formatted in place at the end of `out`.
template <class First, class... Rest>
void put_record(std::string& out, const First& first, const Rest&... rest) {
  using namespace text_codec_detail;
  const std::size_t at = out.size();
  out.resize(at + field_bound(first) + (field_bound(rest) + ... + 0) +
             sizeof...(Rest) + 1);
  char* p = put_field(out.data() + at, first);
  ((*p++ = ' ', p = put_field(p, rest)), ...);
  *p++ = '\n';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

// A byte cursor over a record text.  Every malformed input throws
// Error{code} whose message is `context`, the reason, and " at byte N":
// the offset (plus `base`) of the offending token's first byte.
class TextReader {
 public:
  TextReader(std::string_view text, Errc code, std::string_view context = {},
             std::size_t base = 0) noexcept
      : text_(text), code_(code), context_(context), base_(base) {}

  // Skips whitespace; returns the next token, empty at the end of text.
  std::string_view word() noexcept {
    skip_space();
    tok_ = pos_;
    while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
    return text_.substr(tok_, pos_ - tok_);
  }

  // Reads one token that must equal `literal`.
  void expect(std::string_view literal) {
    const std::string_view tok = word();
    if (tok != literal) {
      fail("expected '" + std::string(literal) + "', got " + quoted(tok));
    }
  }

  // `tok` for an error message: quoted, cut to 32 bytes, and with every
  // byte outside printable ASCII (a NUL would end what()) as \xNN.
  static std::string quoted(std::string_view tok) {
    std::string out = "'";
    for (const char ch : tok.substr(0, 32)) {
      const auto b = static_cast<unsigned char>(ch);
      if (b >= 0x20 && b < 0x7f) {
        out += ch;
      } else {
        constexpr char kHex[] = "0123456789abcdef";
        out += {'\\', 'x', kHex[b >> 4], kHex[b & 15]};
      }
    }
    return out + (tok.size() > 32 ? "...'" : "'");
  }

  // Reads one strict unsigned decimal numeral that fits T.
  template <std::unsigned_integral T>
  T num(std::string_view field) {
    skip_space();
    tok_ = pos_;
    const char* const first = text_.data() + pos_;
    const char* const last = text_.data() + text_.size();
    T v{};
    const auto r = std::from_chars(first, last, v);
    if (r.ec != std::errc{} || (r.ptr != last && !is_space(*r.ptr))) {
      fail("missing or malformed field: " + std::string(field));
    }
    pos_ += static_cast<std::size_t>(r.ptr - first);
    return v;
  }

  // Reads a numeral that must be 0 or 1.
  bool flag(std::string_view field) {
    const auto v = num<unsigned>(field);
    if (v > 1) fail("missing or malformed field: " + std::string(field));
    return v == 1;
  }

  // Raw access, no whitespace skipping: consumes the next byte if it is
  // `c`; consumes and returns the next n bytes (fewer at the end).
  bool eat(char c) noexcept {
    tok_ = pos_;
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  std::string_view take(std::size_t n) noexcept {
    tok_ = pos_;
    const std::string_view s = text_.substr(pos_, n);
    pos_ += s.size();
    return s;
  }

  // The next line (up to, not including, '\n') as a reader of its own
  // that reports offsets in this text; empty once the text is used up.
  TextReader line() noexcept {
    std::size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos) end = text_.size();
    const TextReader out(text_.substr(pos_, end - pos_), code_, context_,
                         base_ + pos_);
    pos_ = end == text_.size() ? end : end + 1;
    return out;
  }

  // Throws unless only whitespace remains.
  void expect_end() {
    skip_space();
    tok_ = pos_;
    if (pos_ != text_.size()) fail("trailing bytes");
  }

  std::string_view rest() const noexcept { return text_.substr(pos_); }
  // Offset of the next unread byte / of the last token read.
  std::size_t offset() const noexcept { return base_ + pos_; }
  std::size_t token_offset() const noexcept { return base_ + tok_; }

  // Throws Error{code} for the last token read, or for `at` when given.
  [[noreturn]] void fail(const std::string& what) const {
    fail_at(token_offset(), what);
  }
  [[noreturn]] void fail_at(std::size_t at, const std::string& what) const {
    throw Error(code_, std::string(context_) + what + " at byte " +
                           std::to_string(at));
  }

 private:
  static constexpr bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  void skip_space() noexcept {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t tok_ = 0;
  Errc code_;
  std::string_view context_;
  std::size_t base_;
};

}  // namespace hfsc
