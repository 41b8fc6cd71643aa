//===- tests/UarchTest.cpp - Micro-architectural model tests -----------------==//
//
// These tests verify that the simulator reproduces the *mechanisms* the
// paper attributes its performance cliffs to: decode-line sensitivity,
// LSD streaming, branch-predictor aliasing by PC >> 5, forwarding-
// bandwidth stalls, and non-temporal cache fills.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "uarch/Runner.h"

#include <gtest/gtest.h>

#include <bit>

using namespace mao;

namespace {

MaoUnit parseOk(const std::string &Text) {
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok());
  return std::move(*UnitOr);
}

std::string wrapFunction(const std::string &Body) {
  return "\t.text\n\t.type f, @function\nf:\n" + Body + "\t.size f, .-f\n";
}

PmuCounters measure(MaoUnit &Unit, ProcessorConfig Config =
                                       ProcessorConfig::core2()) {
  MeasureOptions Options;
  Options.Config = Config;
  auto R = measureFunction(Unit, "f", Options);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.message());
  return R.ok() ? R->Pmu : PmuCounters();
}

/// A counted loop with \p Pad NOP bytes before the loop body.
std::string countedLoop(unsigned PadBytes, unsigned Iterations,
                        const std::string &LoopBody) {
  std::string S;
  S += "\tmovl $" + std::to_string(Iterations) + ", %ecx\n";
  if (PadBytes > 0)
    S += "\tnop" + (PadBytes > 1 ? std::to_string(PadBytes) : "") + "\n";
  S += ".LLOOP:\n";
  S += LoopBody;
  S += "\tsubl $1, %ecx\n";
  S += "\tjne .LLOOP\n";
  S += "\tret\n";
  return S;
}

TEST(Uarch, ExecutesAndCounts) {
  MaoUnit Unit = parseOk(wrapFunction(countedLoop(0, 100, "\taddl $1, %eax\n")));
  PmuCounters Pmu = measure(Unit);
  EXPECT_GT(Pmu.CpuCycles, 0u);
  // 1 mov + 100 * (add, sub, jne) + ret.
  EXPECT_EQ(Pmu.InstRetired, 302u);
  EXPECT_EQ(Pmu.BrCondRetired, 100u);
  // The trained loop branch mispredicts only around entry/exit.
  EXPECT_LE(Pmu.BrMispredicted, 4u);
}

TEST(Uarch, DecodeLineSplitCostsCycles) {
  // The LOOP16 cliff: identical loop body, placed so it either fits one
  // 16-byte decode line or straddles two. The straddling version must be
  // measurably slower (the paper saw 7% on 252.eon from exactly this).
  // `movl $N, %ecx` is 5 bytes; the 11-byte loop body starts right after
  // the pad. Pad 11 -> body at 16 (one decode line); pad 5 -> body at 10
  // (straddles the line boundary at 16).
  const std::string Body = "\taddl $1, %eax\n\taddl $1, %edx\n";
  MaoUnit Aligned = parseOk(wrapFunction(countedLoop(11, 2000, Body)));
  MaoUnit Split = parseOk(wrapFunction(countedLoop(5, 2000, Body)));
  PmuCounters A = measure(Aligned);
  PmuCounters B = measure(Split);
  // Both run the same instruction count (plus one nop).
  EXPECT_NEAR(static_cast<double>(A.InstRetired),
              static_cast<double>(B.InstRetired), 2.0);
  EXPECT_GT(A.CpuCycles, 0u);
  // The split loop fetches ~2x the decode lines in steady state.
  EXPECT_GT(B.DecodeLines, A.DecodeLines + 1000);
}

TEST(Uarch, LsdStreamsSmallHotLoops) {
  // >= 64 iterations of a small loop must engage the LSD on core2.
  MaoUnit Unit = parseOk(wrapFunction(countedLoop(0, 1000,
                                                  "\taddl $1, %eax\n")));
  PmuCounters Pmu = measure(Unit);
  EXPECT_GT(Pmu.LsdUops, 500u);

  // The same loop on the Opteron model (no LSD) streams nothing.
  MaoUnit Unit2 = parseOk(wrapFunction(countedLoop(0, 1000,
                                                   "\taddl $1, %eax\n")));
  PmuCounters Pmu2 = measure(Unit2, ProcessorConfig::opteron());
  EXPECT_EQ(Pmu2.LsdUops, 0u);
}

TEST(Uarch, LsdRequiresMinimumIterations) {
  MaoUnit Unit = parseOk(wrapFunction(countedLoop(0, 32,
                                                  "\taddl $1, %eax\n")));
  PmuCounters Pmu = measure(Unit);
  EXPECT_EQ(Pmu.LsdUops, 0u); // 32 < 64 iterations: never streams.
}

TEST(Uarch, LsdDisqualifiesWideLoops) {
  // A loop spanning more than four 16-byte lines cannot stream. ~80 bytes
  // of body guarantees > 4 lines.
  std::string Body;
  for (int I = 0; I < 16; ++I)
    Body += "\taddl $1, %eax\n"; // >= 48 bytes of adds
  Body += "\timull $3, %eax, %eax\n";
  Body += "\timull $5, %eax, %eax\n";
  Body += "\timull $7, %eax, %eax\n";
  Body += "\timull $9, %eax, %eax\n";
  MaoUnit Unit = parseOk(wrapFunction(countedLoop(0, 500, Body)));
  PmuCounters Pmu = measure(Unit);
  EXPECT_EQ(Pmu.LsdUops, 0u);
}

TEST(Uarch, BranchAliasingByPcShift5) {
  // Two oppositely-biased branches in the same PC>>5 bucket corrupt each
  // other's 2-bit counter (paper Sec. III-C-g): a mostly-taken loop back
  // branch plus a never-taken branch right after it. Aliased, the
  // never-taken branch keeps seeing a taken-trained counter; separated
  // (pushed into the next 32-byte bucket), both train perfectly.
  auto Program = [](bool Separate) {
    std::string S;
    S += "\tmovl $400, %edi\n";
    S += "\txorl %esi, %esi\n"; // esi = 0: the cmp below never sets NE.
    S += "\t.p2align 5\n";
    S += ".LOUTER:\n";
    S += "\tmovl $8, %ecx\n";
    S += ".LI1:\n";
    S += "\taddl $1, %eax\n";
    S += "\tsubl $1, %ecx\n";
    S += "\tjne .LI1\n"; // Mostly taken (7 of 8).
    if (Separate)
      S += "\t.p2align 5\n"; // Next 32-byte bucket.
    S += "\tcmpl $0, %esi\n";
    S += "\tjne .LNEVER\n"; // Never taken.
    if (Separate)
      S += "\t.p2align 5\n"; // Outer back branch gets its own bucket too.
    S += "\tsubl $1, %edi\n";
    S += "\tjne .LOUTER\n";
    S += "\tret\n";
    S += ".LNEVER:\n";
    S += "\tret\n";
    return wrapFunction(S);
  };
  MaoUnit Aliased = parseOk(Program(false));
  MaoUnit Separated = parseOk(Program(true));
  PmuCounters A = measure(Aliased);
  PmuCounters B = measure(Separated);
  // Aliased: the never-taken branch mispredicts every outer iteration.
  EXPECT_GT(A.BrMispredicted, B.BrMispredicted + 300);
  EXPECT_GT(A.CpuCycles, B.CpuCycles);
}

TEST(Uarch, ForwardingBandwidthStalls) {
  // One producer feeding several independent consumers exceeds the
  // forwarding bandwidth (paper Sec. III-F: RESOURCE_STALLS:RS_FULL).
  std::string Body;
  Body += "\txorl %edi, %ebx\n";
  Body += "\tsubl %ebx, %ecx\n";
  Body += "\tsubl %ebx, %edx\n";
  Body += "\tmovl %ebx, %esi\n";
  Body += "\tshrl $12, %esi\n";
  MaoUnit Unit = parseOk(wrapFunction(countedLoop(0, 500, Body)));
  PmuCounters Pmu = measure(Unit);
  EXPECT_GT(Pmu.RsFullStalls, 0u);
}

TEST(Uarch, CacheHierarchyCounts) {
  // Touch 64 distinct cache lines twice: first pass misses, second hits.
  std::string S;
  S += "\tmovq $0x100000, %rdi\n";
  S += "\tmovl $2, %esi\n";
  S += ".LPASS:\n";
  S += "\tmovl $64, %ecx\n";
  S += "\tmovq %rdi, %rax\n";
  S += ".LTOUCH:\n";
  S += "\tmovl (%rax), %edx\n";
  S += "\taddq $64, %rax\n";
  S += "\tsubl $1, %ecx\n";
  S += "\tjne .LTOUCH\n";
  S += "\tsubl $1, %esi\n";
  S += "\tjne .LPASS\n";
  S += "\tret\n";
  MaoUnit Unit = parseOk(wrapFunction(S));
  PmuCounters Pmu = measure(Unit);
  EXPECT_EQ(Pmu.L1Misses, 64u);
  EXPECT_GE(Pmu.L1Hits, 64u);
}

TEST(Uarch, NonTemporalFillPreservesHotWays) {
  // Scan a large array (streaming) interleaved with a small hot set.
  // With prefetchnta before the streaming load, the hot set survives in
  // L1 and total misses drop (the INVPREF mechanism).
  auto Program = [](bool WithPrefetch) {
    std::string S;
    // Hot set: 8 lines at 0x100000 (two hot loads per iteration).
    // Stream: 4096 lines at 0x200000.
    S += "\tmovq $0x200000, %rax\n";
    S += "\tmovl $4096, %ecx\n";
    S += ".LSCAN:\n";
    S += "\tmovq $0x100000, %rdi\n";
    S += "\tmovl (%rdi), %edx\n";
    S += "\tmovl 64(%rdi), %edx\n";
    if (WithPrefetch)
      S += "\tprefetchnta (%rax)\n";
    S += "\tmovl (%rax), %edx\n";
    S += "\taddq $4096, %rax\n"; // Same L1 set every time.
    S += "\tsubl $1, %ecx\n";
    S += "\tjne .LSCAN\n";
    S += "\tret\n";
    return wrapFunction(S);
  };
  MaoUnit Plain = parseOk(Program(false));
  MaoUnit Prefetched = parseOk(Program(true));
  PmuCounters P1 = measure(Plain);
  PmuCounters P2 = measure(Prefetched);
  EXPECT_LT(P2.CpuCycles, P1.CpuCycles);
}

TEST(Uarch, InstructionFetchCountsArePinned) {
  // Two passes over a straight-line NOP sled too large for the LSD pin
  // the I-side counters exactly. Layout (relaxed addresses):
  //   movl  at   0        -> I-line 0
  //   .LPASS at 64 after .p2align 6; 64 x nop8 covers lines 1..8
  //   subl/jne/ret at 576 -> I-line 9
  // Pass one misses all ten lines; pass two re-fetches lines 1..9 and
  // hits. Everything lives in code page 0, and every instruction is
  // line-aligned or line-contained, so exactly one ITLB miss and no
  // split fetches.
  std::string S;
  S += "\tmovl $2, %esi\n";
  S += "\t.p2align 6\n";
  S += ".LPASS:\n";
  for (int I = 0; I < 64; ++I)
    S += "\tnop8\n";
  S += "\tsubl $1, %esi\n";
  S += "\tjne .LPASS\n";
  S += "\tret\n";
  MaoUnit Unit = parseOk(wrapFunction(S));
  PmuCounters Pmu = measure(Unit);
  EXPECT_EQ(Pmu.L1IMisses, 10u);
  EXPECT_EQ(Pmu.L1IHits, 9u);
  EXPECT_EQ(Pmu.ItlbMisses, 1u);
  EXPECT_EQ(Pmu.LineSplitFetches, 0u);
  EXPECT_EQ(Pmu.LsdUops, 0u) << "a 33-decode-line loop must not stream";
}

TEST(Uarch, ItlbCapacityThrashesOnPageScatteredCalls) {
  // A loop calling 17 page-aligned helpers touches 18 code pages per
  // iteration: one over the Core-2 model's 16-entry ITLB, so the LRU
  // array thrashes and every page transition walks. The Opteron model's
  // 32 entries hold the whole working set after the first iteration.
  // This is the miniature of examples/layout_hotcold.s that HOTCOLD
  // exists to fix.
  std::string S;
  S += "\t.text\n\t.type f, @function\nf:\n";
  S += "\tmovl $100, %ecx\n";
  S += ".LITER:\n";
  for (int I = 0; I < 17; ++I)
    S += "\tcall g" + std::to_string(I) + "\n";
  S += "\tsubl $1, %ecx\n";
  S += "\tjne .LITER\n";
  S += "\tret\n";
  S += "\t.size f, .-f\n";
  for (int I = 0; I < 17; ++I) {
    std::string G = "g" + std::to_string(I);
    S += "\t.p2align 12\n";
    S += "\t.type " + G + ", @function\n";
    S += G + ":\n";
    S += "\tret\n";
    S += "\t.size " + G + ", .-" + G + "\n";
  }
  MaoUnit Hot = parseOk(S);
  PmuCounters Core2 = measure(Hot);
  EXPECT_GE(Core2.ItlbMisses, 1700u) << "18 pages must thrash 16 entries";
  // Page-aligned helpers all map to L1I set 0 on core2 (64 sets): the
  // same layout also thrashes the 8-way set. Tree pseudo-LRU keeps a few
  // lines resident under a cyclic sweep (unlike true LRU, which would
  // miss every access), hence the slightly looser bound.
  EXPECT_GE(Core2.L1IMisses, 1300u);

  MaoUnit Hot2 = parseOk(S);
  PmuCounters Opteron = measure(Hot2, ProcessorConfig::opteron());
  EXPECT_LE(Opteron.ItlbMisses, 40u) << "18 pages fit in 32 entries";
}

TEST(Uarch, PrefetchHintsSurviveLaterPrefetches) {
  // Two streaming loads per iteration, both into the hot L1 set. When
  // both are announced by prefetchnta, both fills must stay non-temporal
  // and the seven hot lines survive. A single-entry hint latch (the old
  // bug) would let the second prefetch clobber the first load's hint,
  // turning it into a hot-way-evicting normal fill — indistinguishable
  // from not prefetching it at all.
  auto Program = [](bool PrefetchBoth) {
    std::string S;
    S += "\tmovq $0x200000, %rax\n";
    S += "\tmovl $500, %ecx\n";
    S += ".LSCAN:\n";
    S += "\tmovq $0x100000, %rdi\n";
    // Seven hot lines, stride 4096 so they share L1 set 0.
    for (int I = 0; I < 7; ++I)
      S += "\tmovl " + std::to_string(I * 4096) + "(%rdi), %edx\n";
    if (PrefetchBoth)
      S += "\tprefetchnta (%rax)\n";
    S += "\tprefetchnta 4096(%rax)\n";
    S += "\tmovl (%rax), %edx\n";
    S += "\tmovl 4096(%rax), %edx\n";
    S += "\taddq $8192, %rax\n"; // Fresh lines, same set, every time.
    S += "\tsubl $1, %ecx\n";
    S += "\tjne .LSCAN\n";
    S += "\tret\n";
    return wrapFunction(S);
  };
  MaoUnit Both = parseOk(Program(true));
  MaoUnit OnlyLast = parseOk(Program(false));
  PmuCounters B = measure(Both);
  PmuCounters L = measure(OnlyLast);
  EXPECT_LT(B.L1Misses, L.L1Misses);
  EXPECT_LT(B.CpuCycles, L.CpuCycles);
}

TEST(Uarch, PortCountBoundsThroughput) {
  // The dispatch loop must honour ProcessorConfig::NumPorts (it used to
  // iterate a hardcoded six): the same machine narrowed to one port
  // serializes six independent adds and must be strictly slower.
  std::string Body;
  static const char *Regs[] = {"eax", "ebx", "edx", "esi", "edi", "r8d"};
  for (const char *R : Regs)
    Body += std::string("\taddl $1, %") + R + "\n";
  MaoUnit Wide = parseOk(wrapFunction(countedLoop(0, 1000, Body)));
  MaoUnit Narrow = parseOk(wrapFunction(countedLoop(0, 1000, Body)));
  ProcessorConfig OnePort = ProcessorConfig::core2();
  OnePort.NumPorts = 1;
  PmuCounters W = measure(Wide);
  PmuCounters N = measure(Narrow, OnePort);
  EXPECT_LT(W.CpuCycles, N.CpuCycles);
  // One port issues at most one uop per cycle, so the narrow machine
  // needs at least one cycle per retired instruction.
  EXPECT_GE(N.CpuCycles, N.InstRetired);
}

TEST(Uarch, RetireWidthBoundsIpc) {
  // IPC can never exceed the retire width.
  // Registers distinct from the %ecx loop counter.
  static const char *Regs[] = {"eax", "ebx", "edx", "esi"};
  std::string Body;
  for (int I = 0; I < 8; ++I)
    Body += std::string("\taddl $1, %") + Regs[I % 4] + "\n";
  MaoUnit Unit = parseOk(wrapFunction(countedLoop(0, 1000, Body)));
  PmuCounters Pmu = measure(Unit);
  EXPECT_LE(Pmu.ipc(), 4.01);
}

} // namespace

TEST(Uarch, PresetGeometriesArePowersOfTwo) {
  // The simulator indexes its caches, lines, pages and predictor with
  // shifts and masks, which are exact only for power-of-two sizes.
  for (const ProcessorConfig &C :
       {ProcessorConfig::core2(), ProcessorConfig::opteron(),
        ProcessorConfig::pentium4()}) {
    SCOPED_TRACE(C.Name);
    for (unsigned Size : {C.LineBytes, C.DecodeLineBytes, C.ItlbPageBytes,
                          C.L1Sets, C.L2Sets, C.L1ISets, C.BtbEntries})
      EXPECT_TRUE(std::has_single_bit(Size)) << Size;
    EXPECT_GT(C.RsEntries, 0u);
  }
}
