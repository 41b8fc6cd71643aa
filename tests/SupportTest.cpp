//===- tests/SupportTest.cpp - Support-library unit tests --------------------==//

#include "support/Options.h"
#include "support/Random.h"
#include "support/Status.h"

#include <gtest/gtest.h>

using namespace mao;

namespace {

// --- Option parsing (the paper's --mao= syntax) -----------------------------

TEST(Options, SinglePassNoOptions) {
  std::vector<PassRequest> Requests;
  ASSERT_TRUE(parseMaoOption("REDTEST", Requests).ok());
  ASSERT_EQ(Requests.size(), 1u);
  EXPECT_EQ(Requests[0].PassName, "REDTEST");
  EXPECT_TRUE(Requests[0].Options.all().empty());
}

TEST(Options, MultipleOptionsPerPass) {
  std::vector<PassRequest> Requests;
  ASSERT_TRUE(
      parseMaoOption("NOPIN=seed[42],density[15],maxlen[3]", Requests).ok());
  ASSERT_EQ(Requests.size(), 1u);
  EXPECT_EQ(Requests[0].Options.getInt("seed", 0), 42);
  EXPECT_EQ(Requests[0].Options.getInt("density", 0), 15);
  EXPECT_EQ(Requests[0].Options.getInt("maxlen", 0), 3);
}

TEST(Options, ValuesMayContainColons) {
  // ASM=o[/dev/null] style values may contain path separators and colons.
  std::vector<PassRequest> Requests;
  ASSERT_TRUE(parseMaoOption("ASM=o[a:b/c.s]:LFIND", Requests).ok());
  ASSERT_EQ(Requests.size(), 2u);
  EXPECT_EQ(Requests[0].Options.getString("o"), "a:b/c.s");
  EXPECT_EQ(Requests[1].PassName, "LFIND");
}

TEST(Options, FlagOptionsWithoutValues) {
  std::vector<PassRequest> Requests;
  ASSERT_TRUE(parseMaoOption("LOOP16=verbose,maxsize[8]", Requests).ok());
  EXPECT_TRUE(Requests[0].Options.has("verbose"));
  EXPECT_TRUE(Requests[0].Options.getBool("verbose"));
  EXPECT_EQ(Requests[0].Options.getInt("maxsize", 0), 8);
}

TEST(Options, MalformedInputsRejected) {
  std::vector<PassRequest> Requests;
  EXPECT_FALSE(parseMaoOption("", Requests).ok());
  EXPECT_FALSE(parseMaoOption("PASS=opt[unclosed", Requests).ok());
  EXPECT_FALSE(parseMaoOption("PASS:", Requests).ok());
  EXPECT_FALSE(parseMaoOption("=opt[1]", Requests).ok());
}

TEST(Options, CommandLineSplitsKinds) {
  auto CmdOr = parseCommandLine(
      {"--mao=ZEE:ASM=o[out.s]", "--64", "input.s"});
  ASSERT_TRUE(CmdOr.ok());
  EXPECT_EQ(CmdOr->Passes.size(), 2u);
  ASSERT_EQ(CmdOr->Passthrough.size(), 1u);
  EXPECT_EQ(CmdOr->Passthrough[0], "--64");
  ASSERT_EQ(CmdOr->Inputs.size(), 1u);
  EXPECT_EQ(CmdOr->Inputs[0], "input.s");
}

TEST(Options, RemovedEncodeCacheBudgetFlagIsUnknown) {
  // The encode-length cache and its budget flag are gone; the driver
  // rejects the flag as a usage error like any other unknown option.
  auto CmdOr = parseCommandLine({"--mao-encode-cache-budget=1", "in.s"});
  ASSERT_FALSE(CmdOr.ok());
  EXPECT_EQ(
      CmdOr.message().rfind("unknown option '--mao-encode-cache-budget=1'", 0),
      0u)
      << CmdOr.message();
}

TEST(Options, DefaultsApplyWhenUnset) {
  MaoOptionMap Map;
  EXPECT_EQ(Map.getInt("trace", 7), 7);
  EXPECT_EQ(Map.getString("o", "-"), "-");
  EXPECT_TRUE(Map.getBool("x", true));
  Map.set("trace", "notanumber");
  EXPECT_EQ(Map.getInt("trace", 7), 7);
}

// --- Deterministic random source --------------------------------------------

TEST(Random, DeterministicStreams) {
  RandomSource A(12345), B(12345), C(54321);
  bool AllEqual = true, AnyDiffer = false;
  for (int I = 0; I < 100; ++I) {
    uint64_t VA = A.next(), VB = B.next(), VC = C.next();
    AllEqual &= VA == VB;
    AnyDiffer |= VA != VC;
  }
  EXPECT_TRUE(AllEqual);
  EXPECT_TRUE(AnyDiffer);
}

TEST(Random, BoundsRespected) {
  RandomSource Rng(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(10), 10u);
    int64_t V = Rng.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(Random, ChanceIsRoughlyCalibrated) {
  RandomSource Rng(99);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += Rng.nextChance(1, 4) ? 1 : 0;
  EXPECT_GT(Hits, 2200);
  EXPECT_LT(Hits, 2800);
}

// --- Status / ErrorOr --------------------------------------------------------

TEST(Status, SuccessAndError) {
  MaoStatus Ok = MaoStatus::success();
  EXPECT_TRUE(Ok.ok());
  EXPECT_FALSE(static_cast<bool>(Ok));
  MaoStatus Err = MaoStatus::error("boom");
  EXPECT_FALSE(Err.ok());
  EXPECT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.message(), "boom");
}

TEST(Status, ErrorOrHoldsEither) {
  ErrorOr<int> Value(42);
  ASSERT_TRUE(Value.ok());
  EXPECT_EQ(*Value, 42);
  ErrorOr<int> Err(MaoStatus::error("nope"));
  ASSERT_FALSE(Err.ok());
  EXPECT_EQ(Err.message(), "nope");
}

TEST(Status, ErrorOrTakeMoves) {
  ErrorOr<std::string> Value(std::string("payload"));
  std::string Taken = Value.take();
  EXPECT_EQ(Taken, "payload");
}

} // namespace
