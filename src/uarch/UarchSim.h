//===- uarch/UarchSim.h - Trace-driven micro-architectural model -*- C++ -*-===//
///
/// \file
/// The trace-driven performance model standing in for the paper's physical
/// Core-2 / Opteron machines. It consumes the dynamic instruction stream
/// produced by the functional emulator (each event: the decoded
/// instruction, which carries its layout address, and an optional data
/// address) and produces cycle counts plus PMU-style event counters — the
/// same observables the paper reads from hardware counters (CPU_CYCLES,
/// RESOURCE_STALLS:RS_FULL, branch mispredicts, ...).
///
/// The model is deliberately mechanism-faithful rather than cycle-exact:
/// it implements exactly the structures the paper attributes its cliffs to
/// (decode lines, LSD, PC>>5 predictor aliasing, asymmetric ports,
/// forwarding bandwidth, cache pollution), so pass effects reproduce in
/// direction and rough magnitude.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_UARCH_UARCHSIM_H
#define MAO_UARCH_UARCHSIM_H

#include "sim/Emulator.h"
#include "uarch/ProcessorConfig.h"

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace mao {

class StatsRegistry;

/// PMU-style event counters.
struct PmuCounters {
  uint64_t CpuCycles = 0;
  uint64_t InstRetired = 0;
  uint64_t UopsRetired = 0;
  uint64_t DecodeLines = 0;     ///< 16-byte lines fetched/decoded.
  uint64_t LsdUops = 0;         ///< Uops streamed from the LSD.
  uint64_t BrCondRetired = 0;
  uint64_t BrMispredicted = 0;
  uint64_t RsFullStalls = 0;    ///< RESOURCE_STALLS:RS_FULL analogue.
  uint64_t L1Hits = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Misses = 0;
  uint64_t L1IHits = 0;         ///< I-cache line fetches served by L1I.
  uint64_t L1IMisses = 0;
  uint64_t ItlbMisses = 0;
  uint64_t LineSplitFetches = 0; ///< Instructions spanning two I-cache lines.

  double ipc() const {
    return CpuCycles ? static_cast<double>(InstRetired) /
                           static_cast<double>(CpuCycles)
                     : 0.0;
  }

  /// Accumulates every counter into \p Stats under "uarch.<counter>", so
  /// --mao-report exposes the simulator's PMU totals across all runs.
  void exportTo(StatsRegistry &Stats) const;
};

/// One dynamic instruction event.
struct TraceEvent {
  const DecodedInsn *Insn = nullptr; ///< Address, size, effects, timing.
  std::optional<uint64_t> MemAddr;   ///< Effective data address, if any.
};

/// The simulator. Feed events in dynamic order; read counters() at the end.
class UarchSimulator {
public:
  /// Every cache, line, page and predictor geometry in \p Config must be
  /// a power of two (all presets are): indexing uses shifts and masks.
  explicit UarchSimulator(const ProcessorConfig &Config);

  void consume(const TraceEvent &Event);

  /// Finalizes total cycle count and returns the counters.
  const PmuCounters &finish();

private:
  // --- Front end ------------------------------------------------------------
  /// Cycle at which the instruction's uops are available to the back end.
  uint64_t frontEnd(const DecodedInsn &Insn);
  void noteBranch(int64_t Address, bool ConditionalTaken, bool IsConditional);

  // --- Memory hierarchy -----------------------------------------------------
  /// Returns the load-to-use latency for \p Address and updates the caches.
  unsigned memoryAccess(uint64_t Address, bool NonTemporal);

  /// Brings one I-cache line in through ITLB -> L1I -> shared L2, charging
  /// miss penalties to the front end. Called only while not LSD-streaming.
  void instructionFetch(uint64_t Line);

  // --- Back end ------------------------------------------------------------
  void backEnd(const TraceEvent &Event, uint64_t ReadyCycle);

  const ProcessorConfig Cfg;
  PmuCounters Pmu;

  // Geometry as shifts and masks (log2 of the power-of-two sizes).
  unsigned LineShift, DecodeLineShift, PageShift;
  uint64_t L1SetMask, L2SetMask, L1ISetMask, BtbMask;
  bool L1IPlru; ///< Tree pseudo-LRU applies (power-of-two ways > 1).

  // Front-end state.
  uint64_t FrontCycle = 0;     ///< Cycle the front end is working in.
  int64_t CurrentLine = -1;    ///< Decode line being consumed.
  unsigned DecodedInLine = 0;  ///< Instructions taken from the line.
  int64_t PendingBranchFallthrough = -1; ///< Address after last cond branch.
  int64_t PendingBranchAddr = -1;

  // Loop Stream Detector state.
  int64_t LsdLoopStart = -1, LsdLoopEnd = -1;
  unsigned LsdIterations = 0;
  bool LsdStreaming = false;
  bool LsdEligible = true;     ///< Loop body qualifies (branch kinds).

  // Branch predictor: 2-bit saturating counters.
  std::vector<uint8_t> Predictor;

  // Back-end state.
  std::array<uint64_t, 48> RegReady{}; ///< 16 GPR + 16 XMM + flags at [32].
  std::array<uint64_t, 48> ForwardUses{}; ///< Consumers served at RegReady.
  std::vector<uint64_t> PortFree;      ///< Sized from Cfg.NumPorts.
  /// Completion cycles of the reservation-station window: a ring of
  /// RsEntries slots. Once it is full, InFlightPos is the oldest entry.
  std::vector<uint64_t> InFlight;
  unsigned InFlightCount = 0, InFlightPos = 0;
  uint64_t LastCompletion = 0;

  // Caches: set -> list of (tag, non-temporal) in LRU order (front = MRU).
  struct CacheWay {
    uint64_t Tag;
    bool NonTemporal;
  };
  /// True LRU lookup; shared by the D-side L1 and the unified L2 (which
  /// also serves instruction fetch). Hits move to front unless the access
  /// is non-temporal.
  static bool cacheLookup(std::vector<CacheWay> &Set, uint64_t Tag,
                          bool MoveToFront);
  /// Fills \p Tag into \p Set. Non-temporal fills replace only the LRU
  /// way so they cannot displace more than one resident line.
  static void cacheFill(std::vector<CacheWay> &Set, uint64_t Tag,
                        unsigned Ways, bool NonTemporal);
  std::vector<std::vector<CacheWay>> L1, L2;

  /// Lines touched by a recent prefetchnta whose non-temporal hint has not
  /// yet been consumed by a load. Small FIFO: a burst of prefetches (or
  /// intervening stores) no longer drops earlier hints.
  static constexpr size_t PrefetchWindow = 8;
  std::vector<uint64_t> PrefetchedLines;

  // Instruction-side hierarchy.
  /// One L1I set: way tags ordered most-recent-first when the policy is
  /// true LRU; at fixed positions (with PlruBits picking victims) when the
  /// policy is tree pseudo-LRU.
  struct ICacheSet {
    std::vector<uint64_t> Ways;
    uint32_t PlruBits = 0;
  };
  std::vector<ICacheSet> L1I;
  std::vector<uint64_t> Itlb;   ///< Fully associative pages, front = MRU.
  int64_t LastFetchLine = -1;   ///< Last I-line touched (fetch is sequential).

  bool Finished = false;
};

} // namespace mao

#endif // MAO_UARCH_UARCHSIM_H
