//===- x86/EncodeCache.h - Stub of the removed length cache -----*- C++ -*-===//
///
/// \file
/// MAO no longer caches encoding lengths (DESIGN.md, "Instruction lengths
/// are not cached"). This header-only stub stays only because the
/// end-to-end benchmark includes it and reads its stats
/// (perfbench/src/Bench.cpp), which are always zero now. It is deleted
/// together with perfbench's encode.* metrics in the next change to the
/// benchmark. Nothing under src/ may use it.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_X86_ENCODECACHE_H
#define MAO_X86_ENCODECACHE_H

#include <cstdint>

namespace mao {

struct EncodeCache {
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Entries = 0;
  };
  static EncodeCache instance() { return {}; }
  Stats stats() const { return {}; }
};

} // namespace mao

#endif // MAO_X86_ENCODECACHE_H
