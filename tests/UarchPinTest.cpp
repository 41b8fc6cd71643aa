//===- tests/UarchPinTest.cpp - Pinned simulator and emulator outputs -----===//
//
// The tuner's trajectory is a pure function of the cycle counts the
// simulator returns, so any change to the emulator or the uarch model must
// leave every observable of a measurement unchanged: each PMU counter, the
// number of executed instructions, the final machine state and the stop
// message. The values below were recorded from the reference simulator on
// SPEC-profile programs at a fixed generator seed; a rewrite of the hot
// loop must reproduce them exactly.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "pass/MaoPass.h"
#include "sim/Emulator.h"
#include "support/Hash.h"
#include "tune/Tuner.h"
#include "uarch/Runner.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace mao;

namespace {

constexpr uint64_t GeneratorSeed = 7;

MaoUnit parseOk(const std::string &Text) {
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok());
  return std::move(*UnitOr);
}

MaoUnit profileUnit(const std::string &Profile) {
  const WorkloadSpec *Base = findBenchmarkProfile(Profile);
  EXPECT_NE(Base, nullptr) << Profile;
  WorkloadSpec Spec = *Base;
  Spec.Seed = GeneratorSeed;
  return parseOk(generateWorkloadAssembly(Spec));
}

/// FNV-1a over the whole architectural state, little-endian per field.
uint64_t stateDigest(const MachineState &S) {
  uint64_t H = FnvOffsetBasis;
  auto Mix = [&](uint64_t V) {
    char Bytes[8];
    for (unsigned I = 0; I < 8; ++I)
      Bytes[I] = static_cast<char>((V >> (8 * I)) & 0xff);
    H = fnv1a64(std::string_view(Bytes, 8), H);
  };
  for (uint64_t V : S.Gpr)
    Mix(V);
  for (uint64_t V : S.XmmLo)
    Mix(V);
  const char Flags[6] = {S.CF, S.PF, S.AF, S.ZF, S.SF, S.OF};
  return fnv1a64(std::string_view(Flags, 6), H);
}

/// Every observable of one measureFunction run.
struct Pin {
  const char *Profile;
  uint64_t CpuCycles, InstRetired, UopsRetired, DecodeLines, LsdUops,
      BrCondRetired, BrMispredicted, RsFullStalls, L1Hits, L1Misses,
      L2Misses, L1IHits, L1IMisses, ItlbMisses, LineSplitFetches,
      InstructionsExecuted, StateDigest;
};

Pin observe(const char *Profile, const ProcessorConfig &Config) {
  MaoUnit Unit = profileUnit(Profile);
  MeasureOptions Options;
  Options.Config = Config;
  ErrorOr<MeasureResult> R = measureFunction(Unit, "bench_main", Options);
  EXPECT_TRUE(R.ok()) << Profile << ": " << (R.ok() ? "" : R.message());
  if (!R.ok())
    return Pin{Profile, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  const PmuCounters &P = R->Pmu;
  return Pin{Profile,           P.CpuCycles,
             P.InstRetired,     P.UopsRetired,
             P.DecodeLines,     P.LsdUops,
             P.BrCondRetired,   P.BrMispredicted,
             P.RsFullStalls,    P.L1Hits,
             P.L1Misses,        P.L2Misses,
             P.L1IHits,         P.L1IMisses,
             P.ItlbMisses,      P.LineSplitFetches,
             R->Emulation.InstructionsExecuted,
             stateDigest(R->Emulation.Final)};
}

std::string render(const Pin &P) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"%s\", %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
      "%llu, %llu, %llu, %llu, %llu, %llu, 0x%016llxULL}",
      P.Profile, (unsigned long long)P.CpuCycles,
      (unsigned long long)P.InstRetired, (unsigned long long)P.UopsRetired,
      (unsigned long long)P.DecodeLines, (unsigned long long)P.LsdUops,
      (unsigned long long)P.BrCondRetired,
      (unsigned long long)P.BrMispredicted, (unsigned long long)P.RsFullStalls,
      (unsigned long long)P.L1Hits, (unsigned long long)P.L1Misses,
      (unsigned long long)P.L2Misses, (unsigned long long)P.L1IHits,
      (unsigned long long)P.L1IMisses, (unsigned long long)P.ItlbMisses,
      (unsigned long long)P.LineSplitFetches,
      (unsigned long long)P.InstructionsExecuted,
      (unsigned long long)P.StateDigest);
  return Buf;
}

void expectPinned(const Pin &Want, const ProcessorConfig &Config) {
  const Pin Got = observe(Want.Profile, Config);
  // One comparison of the rendered rows names every field on failure and
  // prints the new row in source form.
  EXPECT_EQ(render(Got), render(Want)) << Config.Name;
}

// The six spec_tune profiles plus 181.mcf, generator seed 7.
const Pin Core2Pins[] = {
    {"164.gzip", 261485, 150862, 150870, 50199, 148656, 26029, 18, 182355,
     187, 6, 57, 3, 51, 1, 38, 150862, 0x860729ed78be587cULL},
    {"175.vpr", 271167, 154021, 154029, 52772, 150672, 26825, 18, 182359,
     380, 6, 100, 129, 94, 2, 126, 154021, 0x65d2bbcf549b79e1ULL},
    {"186.crafty", 286252, 168010, 168018, 60635, 163872, 31281, 40, 182366,
     559, 6, 142, 129, 136, 3, 93, 168010, 0x41dde82339fb01a9ULL},
    {"252.eon", 351807, 287671, 287679, 88101, 261648, 60041, 1044, 194508,
     621, 6, 162, 1001, 156, 3, 106, 287671, 0xceaed24c70585da1ULL},
    {"454.calculix", 413656, 987849, 987869, 349226, 25848, 56528, 27, 4376,
     384216, 18, 84, 104125, 66, 2, 24104, 987849, 0xf30a9e570cac6e63ULL},
    {"464.h264ref", 352300, 367824, 367844, 103439, 363120, 54024, 25, 209804,
     445, 18, 129, 138, 111, 2, 148, 367824, 0x4d81a3589345ef09ULL},
    {"181.mcf", 271329, 180304, 180312, 65079, 178656, 36009, 9, 182342,
     80, 6, 27, 129, 21, 1, 74, 180304, 0x4ee87bd4c8f7bf57ULL},
};

const Pin OpteronPins[] = {
    {"164.gzip", 268959, 150862, 150870, 50199, 0, 26029, 26, 159942,
     187, 6, 57, 3, 51, 1, 38, 150862, 0x860729ed78be587cULL},
    {"175.vpr", 279377, 154021, 154029, 52772, 0, 26825, 22, 159942,
     380, 6, 100, 2401, 94, 2, 1262, 154021, 0x65d2bbcf549b79e1ULL},
    {"186.crafty", 299151, 168010, 168018, 60635, 0, 31281, 62, 159942,
     559, 6, 142, 4001, 136, 3, 93, 168010, 0x41dde82339fb01a9ULL},
    {"252.eon", 395455, 287671, 287679, 88101, 0, 60041, 1048, 159942,
     621, 6, 162, 1001, 156, 3, 106, 287671, 0xceaed24c70585da1ULL},
    {"454.calculix", 661508, 987849, 987869, 349226, 0, 56528, 33, 3934,
     384216, 18, 84, 104997, 66, 2, 24540, 987849, 0xf30a9e570cac6e63ULL},
    {"464.h264ref", 404057, 367824, 367844, 103439, 0, 54024, 25, 159942,
     445, 18, 129, 5010, 111, 2, 2584, 367824, 0x4d81a3589345ef09ULL},
    {"181.mcf", 288687, 180304, 180312, 65079, 0, 36009, 11, 159934,
     80, 6, 27, 40001, 21, 1, 20010, 180304, 0x4ee87bd4c8f7bf57ULL},
};

} // namespace

TEST(UarchPins, SpecProfilesOnCore2) {
  for (const Pin &P : Core2Pins)
    expectPinned(P, ProcessorConfig::core2());
}

TEST(UarchPins, SpecProfilesOnOpteron) {
  for (const Pin &P : OpteronPins)
    expectPinned(P, ProcessorConfig::opteron());
}

TEST(UarchPins, TuneReportOf252Eon) {
  linkAllPasses();
  MaoUnit Unit = profileUnit("252.eon");
  TuneOptions Options;
  Options.Budget = tuneBudgetFromString("small");
  Options.Seed = 1;
  ErrorOr<TuneResult> R = tuneUnit(Unit, Options);
  ASSERT_TRUE(R.ok()) << R.message();
  const std::string Json = tuneReportJson(*R);
  EXPECT_EQ(fnv1a64(Json), 0x080c787bc52287c7ULL) << Json;
}

TEST(UarchPins, TakenJumpToUnknownLabelStopsLazily) {
  // A branch to a label the unit does not define is harmless until it is
  // taken: the not-taken jne falls through, the jmp stops the run.
  MaoUnit Unit = parseOk("\t.text\n\t.type f, @function\nf:\n"
                         "\tmovl $1, %eax\n\tcmpl $1, %eax\n"
                         "\tjne .Lmissing_a\n\taddl $2, %eax\n"
                         "\tjmp .Lmissing_b\n\tret\n\t.size f, .-f\n");
  Emulator Em(Unit);
  EmulationResult R = Em.run("f", MachineState());
  EXPECT_EQ(R.Reason, StopReason::UnknownTarget);
  EXPECT_EQ(R.Message, "jump to unknown label: .Lmissing_b");
  EXPECT_EQ(R.InstructionsExecuted, 5u);
  EXPECT_EQ(R.Final.gprValue(Reg::EAX), 3u);

  MaoUnit Call = parseOk("\t.text\n\t.type f, @function\nf:\n"
                         "\tcall nowhere\n\tret\n\t.size f, .-f\n");
  Emulator CallEm(Call);
  EmulationResult C = CallEm.run("f", MachineState());
  EXPECT_EQ(C.Reason, StopReason::UnknownTarget);
  EXPECT_EQ(C.Message, "call to unknown symbol: nowhere");
  EXPECT_EQ(C.InstructionsExecuted, 1u);
}
