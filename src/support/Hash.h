//===- support/Hash.h - 64-bit FNV-1a ---------------------------*- C++ -*-===//
///
/// \file
/// The one FNV-1a implementation behind every persisted or published
/// digest: artifact-cache keys and checksums, the wire protocol checksum,
/// diagnostic fingerprints, the lint findings digest, the peephole rule
/// digest, score-cache keys and NOPIN's per-function stream. Their values
/// are part of on-disk formats (tests/HashPinTest.cpp pins them).
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_HASH_H
#define MAO_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace mao {

inline constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t FnvPrime = 0x100000001b3ULL;

/// 64-bit FNV-1a over \p Data folded into \p Hash (chainable: hashing
/// "foo" and then "bar" into the result equals hashing "foobar").
constexpr uint64_t fnv1a64(std::string_view Data,
                           uint64_t Hash = FnvOffsetBasis) {
  for (unsigned char C : Data)
    Hash = (Hash ^ C) * FnvPrime;
  return Hash;
}

} // namespace mao

#endif // MAO_SUPPORT_HASH_H
