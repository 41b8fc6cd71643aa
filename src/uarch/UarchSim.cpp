//===- uarch/UarchSim.cpp - Trace-driven micro-architectural model ------------==//

#include "uarch/UarchSim.h"

#include "support/Stats.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace mao;

namespace {

constexpr unsigned FlagsSlot = 32; ///< RegReady index for RFLAGS.

/// Maps a RegMask to RegReady slots: bits [0,16) GPRs, [16,32) XMM.
template <typename Fn> void forEachRegSlot(RegMask Mask, Fn Callback) {
  while (Mask) {
    unsigned Bit = static_cast<unsigned>(__builtin_ctz(Mask));
    Callback(Bit);
    Mask &= Mask - 1;
  }
}

// Tree pseudo-LRU over a power-of-two way count. The W-1 internal nodes
// are heap-indexed from 1; bit set means "victim is in the right subtree".
// An access flips every node on its root-to-way path to point away from
// the accessed way — the classic one-bit-per-node approximation of LRU.

unsigned plruVictim(uint32_t Bits, unsigned Ways) {
  unsigned Node = 1, Lo = 0, Hi = Ways;
  while (Hi - Lo > 1) {
    const unsigned Mid = (Lo + Hi) / 2;
    if (Bits & (1u << Node)) {
      Lo = Mid;
      Node = Node * 2 + 1;
    } else {
      Hi = Mid;
      Node = Node * 2;
    }
  }
  return Lo;
}

uint32_t plruTouch(uint32_t Bits, unsigned Ways, unsigned Way) {
  unsigned Node = 1, Lo = 0, Hi = Ways;
  while (Hi - Lo > 1) {
    const unsigned Mid = (Lo + Hi) / 2;
    if (Way < Mid) {
      Bits |= 1u << Node;
      Hi = Mid;
      Node = Node * 2;
    } else {
      Bits &= ~(1u << Node);
      Lo = Mid;
      Node = Node * 2 + 1;
    }
  }
  return Bits;
}

/// \p A / 2^\p Shift, truncating toward zero like the signed division by
/// the line size it replaces.
int64_t divPow2(int64_t A, unsigned Shift) {
  return A >= 0 ? A >> Shift : -(-A >> Shift);
}

} // namespace

UarchSimulator::UarchSimulator(const ProcessorConfig &Config)
    : Cfg(Config), LineShift(std::countr_zero(Config.LineBytes)),
      DecodeLineShift(std::countr_zero(Config.DecodeLineBytes)),
      PageShift(std::countr_zero(Config.ItlbPageBytes)),
      L1SetMask(Config.L1Sets - 1), L2SetMask(Config.L2Sets - 1),
      L1ISetMask(Config.L1ISets - 1), BtbMask(Config.BtbEntries - 1),
      L1IPlru(Config.L1IRepl == ProcessorConfig::Repl::PseudoLru &&
              Config.L1IWays > 1 && std::has_single_bit(Config.L1IWays)) {
  assert(std::has_single_bit(Cfg.LineBytes) &&
         std::has_single_bit(Cfg.DecodeLineBytes) &&
         std::has_single_bit(Cfg.ItlbPageBytes) &&
         std::has_single_bit(Cfg.L1Sets) && std::has_single_bit(Cfg.L2Sets) &&
         std::has_single_bit(Cfg.L1ISets) &&
         std::has_single_bit(Cfg.BtbEntries) &&
         "simulator geometry must be powers of two");
  assert(Cfg.RsEntries > 0 && "the reservation station needs a slot");
  Predictor.assign(Cfg.BtbEntries, 2); // Weakly taken.
  L1.assign(Cfg.L1Sets, {});
  L2.assign(Cfg.L2Sets, {});
  L1I.assign(Cfg.L1ISets, {});
  PortFree.assign(std::clamp(Cfg.NumPorts, 1u, 8u), 0);
  InFlight.assign(Cfg.RsEntries, 0);
  RegReady.fill(0);
}

void UarchSimulator::noteBranch(int64_t Address, bool Taken,
                                bool IsConditional) {
  if (!IsConditional) {
    // Unconditional redirects break the fetch line and cost a fetch
    // bubble — unless the loop streams from the LSD, which tolerates
    // direct jumps (calls/returns disqualify streaming entirely).
    CurrentLine = -1;
    DecodedInLine = 0;
    if (!LsdStreaming || Address < LsdLoopStart || Address >= LsdLoopEnd)
      ++FrontCycle;
    return;
  }
  ++Pmu.BrCondRetired;
  const uint64_t Index =
      (static_cast<uint64_t>(Address) >> Cfg.BtbIndexShift) & BtbMask;
  uint8_t &Counter = Predictor[Index];
  const bool Predicted = Counter >= 2;
  if (Predicted != Taken) {
    ++Pmu.BrMispredicted;
    FrontCycle = std::max(FrontCycle, LastCompletion) + Cfg.MispredictPenalty;
  }
  if (Taken && Counter < 3)
    ++Counter;
  if (!Taken && Counter > 0)
    --Counter;
  if (Taken) {
    CurrentLine = -1;
    DecodedInLine = 0;
    // Fetch bubble on a taken branch; the Loop Stream Detector's whole
    // point is to hide this for small hot loops.
    if (!LsdStreaming)
      ++FrontCycle;
  }
}

bool UarchSimulator::cacheLookup(std::vector<CacheWay> &Set, uint64_t Tag,
                                 bool MoveToFront) {
  for (size_t I = 0; I < Set.size(); ++I) {
    if (Set[I].Tag != Tag)
      continue;
    if (MoveToFront && I != 0) {
      CacheWay W = Set[I];
      Set.erase(Set.begin() + static_cast<long>(I));
      Set.insert(Set.begin(), W);
    }
    return true;
  }
  return false;
}

void UarchSimulator::cacheFill(std::vector<CacheWay> &Set, uint64_t Tag,
                               unsigned Ways, bool NonTemporal) {
  if (NonTemporal && !Set.empty() && Set.size() >= Ways) {
    // Non-temporal fill replaces only the LRU way and stays LRU: a
    // single way of the set is recycled, preserving the hot ways
    // (the paper's "always replacing a single way" behaviour).
    Set.back() = {Tag, true};
    return;
  }
  Set.insert(Set.begin(), {Tag, NonTemporal});
  if (Set.size() > Ways)
    Set.pop_back();
}

unsigned UarchSimulator::memoryAccess(uint64_t Address, bool NonTemporal) {
  const uint64_t Line = Address >> LineShift;

  std::vector<CacheWay> &L1Set = L1[Line & L1SetMask];
  if (cacheLookup(L1Set, Line, /*MoveToFront=*/!NonTemporal)) {
    ++Pmu.L1Hits;
    return Cfg.L1LoadLatency;
  }
  ++Pmu.L1Misses;
  std::vector<CacheWay> &L2Set = L2[Line & L2SetMask];
  unsigned Latency;
  if (cacheLookup(L2Set, Line, true)) {
    Latency = Cfg.L2Latency;
  } else {
    ++Pmu.L2Misses;
    Latency = Cfg.MemLatency;
    cacheFill(L2Set, Line, Cfg.L2Ways, NonTemporal);
  }
  cacheFill(L1Set, Line, Cfg.L1Ways, NonTemporal);
  return Latency;
}

void UarchSimulator::instructionFetch(uint64_t Line) {
  // Translation precedes fetch: a fully associative, true-LRU ITLB over
  // the code pages. A miss charges the page-walk penalty to the front end.
  const uint64_t Page = (Line << LineShift) >> PageShift;
  bool TlbHit = false;
  for (size_t I = 0; I < Itlb.size(); ++I) {
    if (Itlb[I] != Page)
      continue;
    if (I != 0) {
      Itlb.erase(Itlb.begin() + static_cast<long>(I));
      Itlb.insert(Itlb.begin(), Page);
    }
    TlbHit = true;
    break;
  }
  if (!TlbHit) {
    ++Pmu.ItlbMisses;
    FrontCycle += Cfg.ItlbMissPenalty;
    Itlb.insert(Itlb.begin(), Page);
    if (Itlb.size() > Cfg.ItlbEntries)
      Itlb.pop_back();
  }

  // L1I with the configured replacement policy. Tree pseudo-LRU needs a
  // power-of-two way count; other geometries fall back to true LRU.
  ICacheSet &Set = L1I[Line & L1ISetMask];
  for (size_t I = 0; I < Set.Ways.size(); ++I) {
    if (Set.Ways[I] != Line)
      continue;
    if (L1IPlru) {
      Set.PlruBits =
          plruTouch(Set.PlruBits, Cfg.L1IWays, static_cast<unsigned>(I));
    } else if (I != 0) {
      Set.Ways.erase(Set.Ways.begin() + static_cast<long>(I));
      Set.Ways.insert(Set.Ways.begin(), Line);
    }
    ++Pmu.L1IHits;
    return;
  }
  ++Pmu.L1IMisses;

  // The I-side competes with the D-side for the same unified L2 arrays:
  // instruction misses evict data lines and vice versa.
  std::vector<CacheWay> &L2Set = L2[Line & L2SetMask];
  if (cacheLookup(L2Set, Line, true)) {
    FrontCycle += Cfg.L2Latency;
  } else {
    ++Pmu.L2Misses;
    FrontCycle += Cfg.MemLatency;
    cacheFill(L2Set, Line, Cfg.L2Ways, false);
  }

  if (L1IPlru) {
    unsigned Way;
    if (Set.Ways.size() < Cfg.L1IWays) {
      Way = static_cast<unsigned>(Set.Ways.size());
      Set.Ways.push_back(Line);
    } else {
      Way = plruVictim(Set.PlruBits, Cfg.L1IWays);
      Set.Ways[Way] = Line;
    }
    Set.PlruBits = plruTouch(Set.PlruBits, Cfg.L1IWays, Way);
  } else {
    Set.Ways.insert(Set.Ways.begin(), Line);
    if (Set.Ways.size() > Cfg.L1IWays)
      Set.Ways.pop_back();
  }
}

uint64_t UarchSimulator::frontEnd(const DecodedInsn &Insn) {
  // Decode is per 16-byte line: a new line is a new decode cycle, and at
  // most MaxDecodePerLine instructions decode from one line per cycle.
  // The Core-2-era LSD sits in the fetch unit (pre-decode): while
  // streaming, the taken-branch fetch bubble disappears (see noteBranch),
  // but decode-line costs remain — which is exactly why the paper's
  // short-loop-alignment cliff (LOOP16) exists on machines with an LSD.
  const int64_t Address = Insn.Address;
  const bool Streaming =
      LsdStreaming && Address >= LsdLoopStart && Address < LsdLoopEnd;
  if (Streaming) {
    Pmu.LsdUops += Insn.Uops;
  } else {
    // Instruction fetch walks the I-side hierarchy (ITLB, L1I, shared L2)
    // for every cache line the instruction's bytes occupy. Streamed loops
    // bypass fetch entirely — the LSD replays already-fetched uops.
    const int64_t FirstILine = divPow2(Address, LineShift);
    const int64_t LastILine = divPow2(
        Address + std::max<int64_t>(Insn.Size, 1) - 1, LineShift);
    if (LastILine != FirstILine)
      ++Pmu.LineSplitFetches;
    for (int64_t L = FirstILine; L <= LastILine; ++L) {
      if (L == LastFetchLine)
        continue; // Sequential fetch stays within the already-read line.
      instructionFetch(static_cast<uint64_t>(L));
      LastFetchLine = L;
    }
  }

  const int64_t FirstLine = divPow2(Address, DecodeLineShift);
  const int64_t LastLine = divPow2(
      Address + static_cast<int64_t>(Insn.Size) - 1, DecodeLineShift);
  if (FirstLine != CurrentLine || LastLine != CurrentLine) {
    int64_t NewLines = LastLine - FirstLine + 1;
    if (CurrentLine >= 0 && FirstLine == CurrentLine)
      NewLines = LastLine - CurrentLine; // Only the spilled-into lines.
    NewLines = std::max<int64_t>(1, NewLines);
    FrontCycle += static_cast<uint64_t>(NewLines);
    Pmu.DecodeLines += static_cast<uint64_t>(NewLines);
    CurrentLine = LastLine;
    DecodedInLine = 0;
  }
  unsigned Slots = 1;
  if (Cfg.DecodeCostPerLoad > 1 && Insn.Fx.MemRead)
    Slots = Cfg.DecodeCostPerLoad;
  DecodedInLine += Slots;
  if (DecodedInLine > Cfg.MaxDecodePerLine) {
    ++FrontCycle;
    DecodedInLine = Slots;
  }
  return FrontCycle;
}

void UarchSimulator::backEnd(const TraceEvent &Event, uint64_t ReadyCycle) {
  const DecodedInsn &Insn = *Event.Insn;
  const InstructionEffects &Fx = Insn.Fx;

  // Reservation-station window: dispatch waits for the oldest in-flight
  // instruction to complete once the window is full, and the wait also
  // stalls the fetch/decode front end (otherwise the front would race
  // arbitrarily far ahead of a saturated back end).
  uint64_t Dispatch = ReadyCycle;
  if (InFlightCount == Cfg.RsEntries) {
    const uint64_t OldestDone = InFlight[InFlightPos];
    if (OldestDone > Dispatch) {
      Pmu.RsFullStalls += OldestDone - Dispatch;
      Dispatch = OldestDone;
      FrontCycle = std::max(FrontCycle, OldestDone);
    }
  }

  // Operand readiness.
  uint64_t Ready = Dispatch;
  forEachRegSlot(Fx.RegUses, [&](unsigned Slot) {
    Ready = std::max(Ready, RegReady[Slot]);
  });
  if (Fx.FlagsUse)
    Ready = std::max(Ready, RegReady[FlagsSlot]);

  // Forwarding-bandwidth limit (paper Sec. III-F): a producer forwards its
  // result to at most N consumers in the cycle it becomes available;
  // further consumers wait a cycle in the reservation station, visible as
  // RESOURCE_STALLS:RS_FULL. This is what made the order of the three
  // consumers of one xorl worth 21% in the hashing microbenchmark.
  forEachRegSlot(Fx.RegUses, [&](unsigned Slot) {
    if (RegReady[Slot] != Ready || Ready == 0)
      return;
    if (ForwardUses[Slot] >= Cfg.ForwardingBandwidth) {
      ++Ready;
      ++Pmu.RsFullStalls;
      ForwardUses[Slot] = 0;
    } else {
      ++ForwardUses[Slot];
    }
  });

  // Execution-port contention. The port count comes from the config
  // (Core-2-like: 6; Opteron-like: 3 symmetric integer pipes); a
  // symmetric machine treats every port as issue-capable for any uop.
  const unsigned Ports = static_cast<unsigned>(PortFree.size());
  const uint8_t Reachable = static_cast<uint8_t>((1u << Ports) - 1);
  uint8_t Mask = Cfg.AsymmetricPorts ? Insn.Ports : Reachable;
  if (Mask == 0)
    Mask = PortsAluAny;
  if ((Mask & Reachable) == 0)
    Mask = Reachable; // Opcode mask names only ports this machine lacks.
  unsigned BestPort = 0;
  uint64_t BestStart = ~0ULL;
  for (unsigned P = 0; P < Ports; ++P) {
    if (!(Mask & (1u << P)))
      continue;
    uint64_t Start = std::max(Ready, PortFree[P]);
    if (Start < BestStart) {
      BestStart = Start;
      BestPort = P;
    }
  }
  PortFree[BestPort] = BestStart + 1;

  // Latency, including the memory hierarchy for loads.
  unsigned Latency = Insn.Latency;
  const bool IsPrefetch = Insn.is(DecodedInsn::Prefetch);
  if (Event.MemAddr && !IsPrefetch) {
    const uint64_t Line = *Event.MemAddr >> LineShift;
    if (Fx.MemRead) {
      // A load to a recently-prefetched line keeps the non-temporal
      // placement its prefetchnta asked for; the hint survives unrelated
      // stores and further prefetches in between (it used to be a
      // single-entry latch that any intervening access clobbered), and
      // is consumed by the load it targeted.
      bool NonTemporal = false;
      auto It =
          std::find(PrefetchedLines.begin(), PrefetchedLines.end(), Line);
      if (It != PrefetchedLines.end()) {
        NonTemporal = true;
        PrefetchedLines.erase(It);
      }
      unsigned MemLat = memoryAccess(*Event.MemAddr, NonTemporal);
      Latency = std::max(Latency, MemLat);
    } else if (Fx.MemWrite) {
      memoryAccess(*Event.MemAddr, false);
    }
  }
  if (IsPrefetch && Event.MemAddr) {
    // The prefetch touches the cache with non-temporal placement but is
    // off the critical path.
    memoryAccess(*Event.MemAddr, true);
    const uint64_t Line = *Event.MemAddr >> LineShift;
    if (std::find(PrefetchedLines.begin(), PrefetchedLines.end(), Line) ==
        PrefetchedLines.end()) {
      PrefetchedLines.push_back(Line);
      if (PrefetchedLines.size() > PrefetchWindow)
        PrefetchedLines.erase(PrefetchedLines.begin());
    }
  }

  const uint64_t Completion = BestStart + Latency;

  forEachRegSlot(Fx.RegDefs, [&](unsigned Slot) {
    RegReady[Slot] = Completion;
    ForwardUses[Slot] = 0;
  });
  if (Fx.FlagsDef)
    RegReady[FlagsSlot] = Completion;

  InFlight[InFlightPos] = Completion;
  InFlightPos = InFlightPos + 1 == Cfg.RsEntries ? 0 : InFlightPos + 1;
  if (InFlightCount < Cfg.RsEntries)
    ++InFlightCount;
  LastCompletion = std::max(LastCompletion, Completion);
}

void UarchSimulator::consume(const TraceEvent &Event) {
  assert(!Finished && "consume after finish");
  assert(Event.Insn && "event without an instruction");
  const DecodedInsn &Insn = *Event.Insn;
  const int64_t Address = Insn.Address;

  // Resolve the previous conditional branch now that its outcome (this
  // instruction's address) is known.
  if (PendingBranchAddr >= 0) {
    const bool Taken = Address != PendingBranchFallthrough;
    noteBranch(PendingBranchAddr, Taken, /*IsConditional=*/true);
    PendingBranchAddr = -1;

    // Loop Stream Detector bookkeeping on backward taken branches.
    if (Cfg.HasLsd) {
      if (Taken && Address < PendingBranchFallthrough) {
        const int64_t Start = Address;
        const int64_t End = PendingBranchFallthrough;
        if (Start == LsdLoopStart && End == LsdLoopEnd) {
          ++LsdIterations;
          const unsigned Lines = static_cast<unsigned>(
              divPow2(End - 1, DecodeLineShift) -
              divPow2(Start, DecodeLineShift) + 1);
          if (LsdEligible && Lines <= Cfg.LsdMaxLines &&
              LsdIterations >= Cfg.LsdMinIterations)
            LsdStreaming = true;
        } else {
          LsdLoopStart = Start;
          LsdLoopEnd = End;
          LsdIterations = 1;
          LsdStreaming = false;
          LsdEligible = true;
        }
      } else if (Taken || Address >= LsdLoopEnd || Address < LsdLoopStart) {
        // Left the loop (fallthrough out or forward jump elsewhere).
        if (LsdStreaming || Address >= LsdLoopEnd || Address < LsdLoopStart) {
          LsdStreaming = false;
          LsdIterations = 0;
          LsdLoopStart = LsdLoopEnd = -1;
        }
      }
    }
  }

  // Instructions that disqualify a loop from streaming.
  if (Cfg.HasLsd && LsdLoopStart >= 0 && Address >= LsdLoopStart &&
      Address < LsdLoopEnd &&
      Insn.is(DecodedInsn::Call | DecodedInsn::Return | DecodedInsn::Indirect))
    LsdEligible = false;

  ++Pmu.InstRetired;
  Pmu.UopsRetired += Insn.Uops;

  const uint64_t Delivered = frontEnd(Insn);
  backEnd(Event, Delivered);

  // Record branch kind for resolution at the next event.
  if (Insn.is(DecodedInsn::CondJump)) {
    PendingBranchAddr = Address;
    PendingBranchFallthrough = Address + Insn.Size;
  } else if (Insn.is(DecodedInsn::UncondJump | DecodedInsn::Call |
                     DecodedInsn::Return)) {
    noteBranch(Address, true, /*IsConditional=*/false);
  }
}

const PmuCounters &UarchSimulator::finish() {
  if (!Finished) {
    Finished = true;
    Pmu.CpuCycles = std::max({FrontCycle, LastCompletion,
                              Pmu.UopsRetired / Cfg.RetireWidth});
  }
  return Pmu;
}

void PmuCounters::exportTo(StatsRegistry &Stats) const {
  Stats.counter("uarch.cycles").add(CpuCycles);
  Stats.counter("uarch.instructions").add(InstRetired);
  Stats.counter("uarch.uops").add(UopsRetired);
  Stats.counter("uarch.decode_lines").add(DecodeLines);
  Stats.counter("uarch.lsd_uops").add(LsdUops);
  Stats.counter("uarch.cond_branches").add(BrCondRetired);
  Stats.counter("uarch.branch_mispredicts").add(BrMispredicted);
  Stats.counter("uarch.rs_full_stalls").add(RsFullStalls);
  Stats.counter("uarch.l1_hits").add(L1Hits);
  Stats.counter("uarch.l1_misses").add(L1Misses);
  Stats.counter("uarch.l2_misses").add(L2Misses);
  Stats.counter("uarch.l1i_hits").add(L1IHits);
  Stats.counter("uarch.l1i_misses").add(L1IMisses);
  Stats.counter("uarch.itlb_misses").add(ItlbMisses);
  Stats.counter("uarch.line_split_fetches").add(LineSplitFetches);
}
