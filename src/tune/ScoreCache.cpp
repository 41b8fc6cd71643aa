//===- tune/ScoreCache.cpp - Candidate score memoization ----------------------==//

#include "tune/ScoreCache.h"

#include "passes/PeepholeEngine.h"
#include "support/Hash.h"

using namespace mao;

namespace {

/// FNV-1a over the object representation of \p Data.
uint64_t fnvMix(uint64_t Hash, const void *Data, size_t Size) {
  return fnv1a64(std::string_view(static_cast<const char *>(Data), Size),
                 Hash);
}

} // namespace

uint64_t ScoreCache::keyFor(const SectionBytes &Bytes) const {
  uint64_t Hash = fnv1a64(ConfigName);
  // A score is a function of the bytes AND the rule table that produced
  // them: fold the active peephole-rule digest in so a table swap
  // (--synth-rules) can never serve a stale cycle count.
  const uint64_t RuleDigest = peepholeRuleDigest();
  Hash = fnvMix(Hash, &RuleDigest, sizeof(RuleDigest));
  for (const auto &[Name, Data] : Bytes) {
    Hash = fnv1a64(Name, Hash);
    const uint64_t Size = Data.size();
    Hash = fnvMix(Hash, &Size, sizeof(Size));
    Hash = fnvMix(Hash, Data.data(), Data.size());
  }
  return Hash;
}

std::optional<uint64_t> ScoreCache::lookup(uint64_t Key) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++Misses;
    return std::nullopt;
  }
  ++Hits;
  return It->second;
}

void ScoreCache::insert(uint64_t Key, uint64_t Cycles) {
  std::lock_guard<std::mutex> Lock(M);
  if (!Map.emplace(Key, Cycles).second)
    return;
  Order.push_back(Key);
  if (ByteBudget == 0)
    return;
  const uint64_t MaxEntries = ByteBudget / BytesPerEntry;
  while (Map.size() > MaxEntries && Order.size() > 1) {
    Map.erase(Order.front());
    Order.pop_front();
    ++Evictions;
  }
}

void ScoreCache::setByteBudget(uint64_t Bytes) {
  std::lock_guard<std::mutex> Lock(M);
  ByteBudget = Bytes;
}

ScoreCache::Stats ScoreCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return {Hits, Misses, Evictions, Map.size()};
}
