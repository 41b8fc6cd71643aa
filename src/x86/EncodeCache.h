//===- x86/EncodeCache.h - Encoding-length memoization ----------*- C++ -*-===//
///
/// \file
/// A process-wide memoization cache for instruction encoding lengths, the
/// dominant cost of a relaxation round: a cold relaxUnit() measures every
/// non-branch instruction of the unit, and every pass that relaxes after
/// the layout changed (or at a pass boundary) relaxes cold again, so the
/// same instruction content is measured many times over a pipeline.
///
/// Keys are the instruction's full serialized content (mnemonic, widths,
/// condition code, NOP length, relaxed branch size, and every operand
/// field) — not a hash of it — so two distinct instructions can never
/// alias a cache entry and lengths stay exact; exactness is what the
/// relaxer's correctness and the bit-identical-output guarantee of the
/// sharded pipeline rest on. Lengths are position-independent (branch
/// displacement *width* is part of the content via BranchSize), which is
/// why a content-keyed cache is sound at all.
///
/// Only successful encodes are cached: a miss that fails to encode is not
/// recorded, so fallible validation (the verifier) keeps re-checking bad
/// instructions. The cache is sharded over independently locked buckets so
/// parallel pass shards measuring lengths concurrently do not serialize.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_X86_ENCODECACHE_H
#define MAO_X86_ENCODECACHE_H

#include "x86/Instruction.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace mao {

class EncodeCache {
public:
  static EncodeCache &instance();

  /// Returns the encoded length of \p Insn, consulting the cache first.
  /// On a miss the instruction is encoded once (asserting success, like
  /// instructionLength) and the length is memoized.
  unsigned length(const Instruction &Insn);

  /// Lookup only: the memoized length if \p Insn was successfully encoded
  /// before, std::nullopt otherwise. Never encodes and never counts toward
  /// hit/miss statistics — whether a probe finds its key depends on what
  /// other shards cached first, so counting probes would make the stats
  /// scheduling-dependent.
  std::optional<unsigned> cachedLength(const Instruction &Insn) const;

  /// Records a successful encode of \p Insn with \p Length bytes.
  void noteLength(const Instruction &Insn, unsigned Length);

  /// Drops the entry for \p Insn's *current* content, if present, and
  /// returns whether one was dropped. Callers that mutate an instruction
  /// in place (the tuner's NOP-resize scratch protocol) invalidate the
  /// pre-mutation content explicitly before rewriting it: content-keying
  /// keeps mutation *correct* without this, but every transient length the
  /// search touches would otherwise stay resident for the process
  /// lifetime. Invalidate before mutating — afterwards the old key is no
  /// longer reachable from the instruction.
  bool invalidate(const Instruction &Insn);

  /// Drops every entry (tests and benchmarks isolating cold behaviour).
  void clear();

  /// Caps resident key bytes at \p Bytes, split evenly across shards;
  /// inserts over budget evict in FIFO order. 0 (the default) disables
  /// eviction entirely: an uncapped cache keeps the published hit/miss
  /// numbers independent of insertion order, so the cap is strictly
  /// opt-in (--mao-encode-cache-budget) for long-lived maod processes
  /// that would otherwise grow without bound.
  void setByteBudget(uint64_t Bytes);

  /// Exact accounting for length() calls: Hits + Misses equals the number
  /// of length() calls and Misses equals the number of entries inserted
  /// through length(), regardless of thread interleaving (a racing
  /// double-encode is counted as one miss — whoever wins the insert — and
  /// one hit). cachedLength()/noteLength() probes are not counted, so the
  /// numbers published by --mao-report are identical across --mao-jobs
  /// values.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    size_t Entries = 0;
  };
  Stats stats() const;

  /// Serializes the content that determines \p Insn's encoded length into
  /// a byte-exact key. Exposed for tests.
  static std::string makeKey(const Instruction &Insn);

private:
  EncodeCache() = default;

  static constexpr unsigned NumShards = 16;
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<std::string, unsigned> Map;
    /// Insertion order for FIFO eviction. Pointers into Map's keys are
    /// stable (node-based container); entries removed via invalidate()
    /// are also unlinked here.
    std::deque<const std::string *> Order;
    size_t KeyBytes = 0;
  };

  Shard &shardFor(const std::string &Key);
  const Shard &shardFor(const std::string &Key) const;

  /// Records \p It's insertion in \p S and evicts FIFO-oldest entries
  /// while the shard exceeds its slice of the budget. Caller holds S.M.
  void noteInsert(Shard &S,
                  std::unordered_map<std::string, unsigned>::iterator It);

  std::array<Shard, NumShards> Shards;
  std::atomic<uint64_t> ByteBudget{0};
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Misses{0};
  mutable std::atomic<uint64_t> Evictions{0};
};

} // namespace mao

#endif // MAO_X86_ENCODECACHE_H
