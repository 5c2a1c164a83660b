// FNV-1a 64-bit: the one byte hash behind the journal's record checksums
// and state_digest.  Every stored or pinned digest depends on these exact
// constants.
#pragma once

#include <cstdint>
#include <string_view>

namespace hfsc {

inline std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 1469598103934665603ull;  // offset basis
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

}  // namespace hfsc
