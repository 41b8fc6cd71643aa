//===- tests/HashPinTest.cpp - Pinned values of every FNV-1a digest -------===//
//
// Every persisted or published 64-bit digest in MAO is FNV-1a: artifact
// cache entry checksums and keys, the wire protocol checksum, diagnostic
// fingerprints (lint baselines, SARIF), the lint findings digest, the
// peephole rule digest, tuner score-cache keys and NOPIN's per-function
// random stream. Several of them are stored on disk, so a change to the
// hashing code must leave every value below unchanged, or baselines and
// caches written by an older binary stop matching.
//
//===----------------------------------------------------------------------===//

#include "asm/AsmEmitter.h"
#include "asm/Parser.h"
#include "check/Lint.h"
#include "mao/Mao.h"
#include "pass/MaoPass.h"
#include "passes/PeepholeEngine.h"
#include "serve/ArtifactCache.h"
#include "support/Diag.h"
#include "tune/ScoreCache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace mao;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

MaoUnit parseOk(const std::string &Text) {
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok());
  return std::move(*UnitOr);
}

} // namespace

TEST(HashPins, Fnv1a64OfFixedStrings) {
  EXPECT_EQ(serve::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(serve::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(serve::fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(serve::fnv1a64(std::string_view("\0\xff", 2)),
            0x0831c907b4ea2b60ULL);
  // Chaining equals hashing the concatenation.
  EXPECT_EQ(serve::fnv1a64("bar", serve::fnv1a64("foo")),
            serve::fnv1a64("foobar"));
}

TEST(HashPins, DiagFingerprintOfFixedFinding) {
  EXPECT_EQ(diagFingerprint(DiagCode::LintUseBeforeDef,
                            "function 'f': register %r10 is read first"),
            0xfc5dfee092bd924dULL);
  EXPECT_EQ(
      diagFingerprintHex(diagFingerprint(DiagCode::LintDeadFlagWrite, "")),
      "385730699529a5f2");
}

TEST(HashPins, PeepholeRuleDigestOfBuiltinTable) {
  resetPeepholeRules();
  EXPECT_EQ(peepholeRuleDigest(), 0x9557b51ec49a0d27ULL);
}

TEST(HashPins, ScoreCacheKeyOfFixedBytes) {
  resetPeepholeRules();
  SectionBytes Bytes;
  Bytes[".text"] = {0x48, 0x31, 0xc0, 0xc3};
  Bytes[".data"] = {1, 2, 3};
  EXPECT_EQ(ScoreCache("core2").keyFor(Bytes), 0xf0df6093ee4c5c4bULL);
  EXPECT_EQ(ScoreCache("opteron").keyFor(Bytes), 0xe0cd00032570a3ffULL);
}

TEST(HashPins, LintDigestAndBaselineFingerprintsOfExample) {
  MaoUnit Unit =
      parseOk(readFile(std::string(MAO_EXAMPLES_DIR) + "/lint_demo.s"));
  const std::string Path = ::testing::TempDir() + "mao_hash_pin_baseline.txt";
  LintOptions Options;
  Options.FileName = "lint_demo.s";
  Options.BaselineOutPath = Path;
  DiagEngine Diags;
  const LintResult Result = lintUnit(Unit, Options, Diags);
  ASSERT_FALSE(Result.InternalError) << Result.InternalDetail;
  EXPECT_EQ(Result.FindingsDigest, 0x85185b425f9fecbdULL);

  std::vector<std::string> Fingerprints;
  std::istringstream Lines(readFile(Path));
  std::remove(Path.c_str());
  for (std::string Line; std::getline(Lines, Line);)
    if (!Line.empty() && Line[0] != '#')
      Fingerprints.push_back(Line.substr(0, Line.find(' ')));
  EXPECT_EQ(Fingerprints,
            (std::vector<std::string>{"da5d2d642270363d", "68576e1e7d3e34cf",
                                      "0210dc4f21c743bc", "3326d8af6678d4dc",
                                      "d1a770644fe3c1af", "7ff404dca5eb1261",
                                      "010fd634802b019c"}));
}

TEST(HashPins, NopinOutputAtFixedSeed) {
  linkAllPasses();
  MaoUnit Unit = parseOk("\t.text\n"
                         "\t.type kernel, @function\n"
                         "kernel:\n"
                         "\tmovl $1, %eax\n"
                         "\taddl $2, %eax\n"
                         "\taddl $3, %eax\n"
                         "\tsubl $1, %eax\n"
                         "\timull %eax, %eax\n"
                         "\tret\n"
                         "\t.size kernel, .-kernel\n");
  PassRequest Req;
  Req.PassName = "NOPIN";
  Req.Options.set("seed", "7");
  Req.Options.set("density", "50");
  PipelineResult R = runPasses(Unit, {Req});
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Counts.size(), 1u);
  EXPECT_GT(R.Counts[0].second, 0u) << "the pin must cover inserted NOPs";
  EXPECT_EQ(serve::fnv1a64(emitAssembly(Unit)), 0x7c2c5c80932c4861ULL);
}

TEST(HashPins, ArtifactCacheKeyOfFixedRequest) {
  // Also covers the schema tag ("mao-artifact-v2") and the registered pass
  // catalogue, both folded into every key.
  mao::api::CachedRunRequest Request;
  Request.Source = "\t.text\n\t.type f, @function\nf:\n"
                   "\taddl $2, %eax\n\ttestl %eax, %eax\n\tret\n"
                   "\t.size f, .-f\n";
  ASSERT_TRUE(
      mao::api::Session::parsePipelineSpec("zee,redtest", Request.Pipeline)
          .Ok);
  Request.Options.OnError = "rollback";
  EXPECT_EQ(mao::api::Session::cacheKey(Request), 0xf5e968cec0771acdULL);
}
