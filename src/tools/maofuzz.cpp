//===- tools/maofuzz.cpp - Pipeline fuzzing harness ---------------------------===//
///
/// \file
/// Deterministic fuzzing harness for the MAO pipeline. Each seed derives a
/// randomized-but-valid WorkloadSpec, generates assembly from it, and then
/// exercises the whole stack through the public facade (mao/Mao.h) — the
/// fuzzer sees exactly the surface an external embedder sees:
///
///   1. parse the text into a program,
///   2. identity round-trip: emit -> reparse -> assemble both, the bytes
///      must match (paper Sec. III-A's identity-verification workflow),
///   3. run the IR verifier on the untouched program,
///   4. run a random subset of the registered passes in random order under
///      the rollback policy with per-pass verification,
///   5. verify the final program again.
///
/// On the clean path every step must succeed. With --inject= the fault
/// injector is armed (re-seeded per iteration, so any failure reproduces
/// from its seed alone) and injected failures are expected and counted —
/// the assertion weakens to "no crash, every failure is contained by the
/// rollback machinery".
///
///   maofuzz [--seeds=N] [--seed-base=B] [--inject=spec[@seed]] [--lint]
///           [--serve] [--synth] [-v]
///
/// With --lint each clean iteration additionally runs the MaoCheck linter
/// (which must never crash) and the semantic translation validator: the
/// program must validate against its own clone, and every pass in the
/// random pipeline must preserve semantics.
///
/// With --synth each iteration exercises the rule-synthesis pipeline
/// (src/synth) instead: windows harvested from the seed's workload must be
/// well-formed templates, every candidate the symbolic oracle proves must
/// also survive the independent SemanticValidator recheck (the two provers
/// may never disagree in the unsound direction), and a bounded end-to-end
/// synthesis run must emit a byte-identical rule table for --mao-jobs 1
/// and 2.
///
/// With --serve each iteration exercises the service-mode contract
/// instead: a cold Session::cacheRun, its warm hit, and a cache-less
/// direct compute must all produce byte-identical output; the wire codec
/// must round-trip the request; a frame carrying it must either arrive
/// with an identical payload or fail its checksum (a seed-derived bit
/// flip in transit can never yield different bytes); and a bit-flipped
/// on-disk entry must never parse. Combined with --inject over the
/// fs/protocol fault domain (fswrite, fsrename, cacheread, frame) the
/// assertion weakens, as on the compute path, to "no crash, no wrong
/// bytes": injected store/read/frame faults are expected and counted,
/// but every output byte still matches the direct compute.
///
/// Exit codes: 0 all iterations clean (or contained), 1 at least one
/// property violated, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "mao/Mao.h"
#include "serve/ArtifactCache.h"
#include "serve/Protocol.h"
#include "support/Random.h"
#include "synth/Synth.h"
#include "workload/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

using namespace mao;

namespace {

struct FuzzConfig {
  unsigned Seeds = 100;
  uint64_t SeedBase = 1;
  std::string InjectSpec;
  uint64_t InjectSeed = 1;
  bool Verbose = false;
  /// --lint: additionally run the MaoCheck linter over every generated
  /// unit (it must never crash or report an internal error) and arm the
  /// semantic validator: identity must validate as equivalent, and every
  /// clean-path pass must report zero divergences.
  bool Lint = false;
  /// --serve: fuzz the service-mode contract (artifact cache + wire
  /// protocol) instead of the raw pipeline.
  bool Serve = false;
  /// --synth: fuzz the rule-synthesis pipeline (harvest/prove/verify
  /// consistency plus cross-jobs table identity) instead of the raw
  /// pipeline.
  bool Synth = false;
  /// Cache directory shared by every --serve iteration (content
  /// addressing keeps per-seed entries disjoint).
  std::string ServeCacheDir;
};

/// Derives a small-but-varied workload from one fuzz seed. Every knob stays
/// in a range the generator documents as valid, so failures downstream are
/// always MAO bugs (or injected faults), never bad inputs.
WorkloadSpec randomSpec(uint64_t Seed) {
  RandomSource Rng(Seed * 0x9e3779b97f4a7c15ULL + 1);
  WorkloadSpec Spec;
  Spec.Name = "fuzz-" + std::to_string(Seed);
  Spec.Seed = Seed;
  Spec.Functions = 1 + static_cast<unsigned>(Rng.nextBelow(4));
  Spec.FillerPerFunction = 8 + static_cast<unsigned>(Rng.nextBelow(60));
  Spec.ZeroExtPatterns = static_cast<unsigned>(Rng.nextBelow(8));
  Spec.RedundantTests = static_cast<unsigned>(Rng.nextBelow(8));
  Spec.HarmlessTests = static_cast<unsigned>(Rng.nextBelow(12));
  Spec.RedundantLoads = static_cast<unsigned>(Rng.nextBelow(8));
  Spec.AddAddPairs = static_cast<unsigned>(Rng.nextBelow(6));
  Spec.SplitShortLoops = static_cast<unsigned>(Rng.nextBelow(3));
  Spec.AlignedShortLoops = static_cast<unsigned>(Rng.nextBelow(3));
  Spec.AccidentallyAlignedLoops = static_cast<unsigned>(Rng.nextBelow(2));
  Spec.BucketSensitivePairs = static_cast<unsigned>(Rng.nextBelow(2));
  Spec.DecodeBoundLoops = static_cast<unsigned>(Rng.nextBelow(3));
  Spec.LsdFixableLoops = static_cast<unsigned>(Rng.nextBelow(2));
  Spec.SchedFanoutLoops = static_cast<unsigned>(Rng.nextBelow(3));
  Spec.NeutralLoops = static_cast<unsigned>(Rng.nextBelow(2));
  Spec.NeutralIterations = 100; // Never emulated here; keep loops small.
  Spec.HotIterations = 50;
  Spec.AlignDirectivesOnHotLoops = Rng.nextChance(1, 2);
  Spec.JumpTables = static_cast<unsigned>(Rng.nextBelow(3));
  return Spec;
}

/// Transform passes safe to run in any order. ASM is excluded (it writes
/// files); the list is filtered against the registry so a renamed pass
/// shows up as a loud failure, not silent no-coverage.
const char *const CandidatePasses[] = {
    "ZEE",    "REDTEST", "REDMOV",     "ADDADD",   "CONSTFOLD", "DCE",
    "LOOP16", "LSDOPT",  "BRALIGN",    "SCHED",    "NOPIN",     "NOPKILL",
    "LFIND",  "MAOPASS", "INSTRUMENT", "ALIGNSEL",
};

std::vector<api::PassSpec> randomPipeline(uint64_t Seed) {
  RandomSource Rng(Seed * 0x517cc1b727220a95ULL + 2);
  std::vector<std::string> Names(std::begin(CandidatePasses),
                                 std::end(CandidatePasses));
  // Fisher-Yates with the deterministic source (std::shuffle's ordering is
  // implementation-defined; reproducibility across libstdc++ versions
  // matters more than elegance here).
  for (size_t I = Names.size(); I > 1; --I)
    std::swap(Names[I - 1], Names[Rng.nextBelow(I)]);
  size_t Take = 1 + Rng.nextBelow(Names.size());
  Names.resize(Take);

  std::vector<api::PassSpec> Pipeline;
  for (const std::string &Name : Names) {
    api::PassSpec Spec;
    Spec.Name = Name;
    Spec.Options.emplace_back("trace", "-1"); // Narrating passes stay quiet.
    if (Name == "NOPIN") {
      Spec.Options.emplace_back("seed",
                                std::to_string(1 + Rng.nextBelow(1000)));
      Spec.Options.emplace_back("density",
                                std::to_string(1 + Rng.nextBelow(16)));
    }
    if (Name == "ALIGNSEL") {
      // Entry alignment 0 strips it; loop alignment 0 leaves loops alone.
      Spec.Options.emplace_back("pow", std::to_string(Rng.nextBelow(6)));
      Spec.Options.emplace_back("loops", std::to_string(Rng.nextBelow(6)));
    }
    Pipeline.push_back(Spec);
  }
  return Pipeline;
}

/// A seed-derived cluster of functions that call each other, appended to
/// the workload so the interprocedural rules (call graph, summaries, ABI
/// checks) see nontrivial direct/PLT/tail-call edges plus a recursive SCC.
std::string interproceduralCluster(uint64_t Seed) {
  RandomSource Rng(Seed * 0xd1b54a32d192ed03ULL + 3);
  std::string S;
  auto Fn = [&S](const std::string &Name, const std::string &Body) {
    S += "\t.text\n\t.globl\t" + Name + "\n\t.type\t" + Name +
         ", @function\n" + Name + ":\n" + Body + "\t.size\t" + Name +
         ", .-" + Name + "\n";
  };
  // Leaf callee: clobbers %rax only, or additionally uses (and properly
  // saves) callee-saved %rbx.
  bool SaveRbx = Rng.nextChance(1, 2);
  std::string Leaf;
  if (SaveRbx)
    Leaf += "\tpushq\t%rbx\n";
  Leaf += "\tmovq\t%rdi, %rax\n\taddq\t$1, %rax\n";
  if (SaveRbx)
    Leaf += "\tmovq\t%rax, %rbx\n\tmovq\t%rbx, %rax\n\tpopq\t%rbx\n";
  Leaf += "\tret\n";
  Fn("ipa_leaf", Leaf);
  // Non-leaf caller: frame, direct call, sometimes a PLT call, and either
  // a plain return or a tail call back into the unit.
  std::string Mid = "\tpushq\t%rbp\n\tmovq\t%rsp, %rbp\n"
                    "\tmovq\t$7, %rdi\n\tcall\tipa_leaf\n";
  if (Rng.nextChance(1, 2))
    Mid += "\tmovq\t%rax, %rdi\n\tcall\tipa_leaf@PLT\n";
  Mid += "\tpopq\t%rbp\n";
  Mid += Rng.nextChance(1, 2) ? "\tjmp\tipa_leaf\n" : "\tret\n";
  Fn("ipa_mid", Mid);
  // Mutual recursion: a two-node SCC for the summary fixpoint.
  Fn("ipa_even", "\tsubq\t$1, %rdi\n\tjns\t.Lipa_to_odd\n"
                 "\tmovq\t$1, %rax\n\tret\n"
                 ".Lipa_to_odd:\n\tcall\tipa_odd\n\tret\n");
  Fn("ipa_odd", "\tsubq\t$1, %rdi\n\tjns\t.Lipa_to_even\n"
                "\tmovq\t$0, %rax\n\tret\n"
                ".Lipa_to_even:\n\tcall\tipa_even\n\tret\n");
  return S;
}

struct IterationResult {
  bool PropertyViolated = false;
  unsigned InjectedFailures = 0;
};

IterationResult runOne(uint64_t Seed, const FuzzConfig &Config) {
  IterationResult R;
  const bool Injecting = !Config.InjectSpec.empty();
  // Quiet session: findings and diagnostics are not interesting per
  // iteration, only property violations are.
  api::Session::Config SessionConfig;
  SessionConfig.StderrDiagnostics = false;
  api::Session Session(SessionConfig);

  auto Violate = [&](const char *What, const std::string &Detail) {
    std::fprintf(stderr, "maofuzz: seed %llu: %s: %s\n",
                 static_cast<unsigned long long>(Seed), What, Detail.c_str());
    R.PropertyViolated = true;
  };

  std::string Asm = generateWorkloadAssembly(randomSpec(Seed));

  api::Program Program;
  if (api::Status S = Session.parseText(Asm, "fuzz.s", Program); !S.Ok) {
    // The generator emits valid assembly; a parse failure is only
    // acceptable as a contained injected fault.
    if (Injecting)
      ++R.InjectedFailures;
    else
      Violate("parse failed", S.Message);
    return R;
  }

  if (!Injecting) {
    // Identity round-trip on the untouched path: text -> IR -> text -> IR
    // must assemble to the same bytes.
    std::string Emitted = Session.emitToString(Program);
    api::Program Reparsed;
    if (api::Status S = Session.parseText(Emitted, "fuzz2.s", Reparsed);
        !S.Ok) {
      Violate("round-trip reparse failed", S.Message);
      return R;
    }
    api::AssembledBytes B0, B1;
    api::Status S0 = Session.assemble(Program, B0);
    api::Status S1 = Session.assemble(Reparsed, B1);
    if (!S0.Ok || !S1.Ok) {
      Violate("assembly failed", !S0.Ok ? S0.Message : S1.Message);
      return R;
    }
    if (B0 != B1) {
      Violate("identity round-trip changed the binary", "byte mismatch");
      return R;
    }
    if (api::Status S = Session.verify(Program); !S.Ok) {
      Violate("verifier rejected untouched unit", S.Message);
      return R;
    }
  }

  if (Config.Lint) {
    // Lint the workload plus a seed-derived call cluster so the
    // interprocedural rules see nontrivial call graphs. The linter may
    // flag the generated code (its findings are advisory) but must never
    // crash or report an internal error, and its finding set must be
    // identical for every worker count — fault injection or not (no
    // fault site lives in the analysis pipeline, so this holds even with
    // the injector armed; only the parse itself can take a fault).
    std::string InterAsm = Asm + interproceduralCluster(Seed);
    api::Program LintProg;
    if (api::Status S = Session.parseText(InterAsm, "fuzzipa.s", LintProg);
        !S.Ok) {
      if (Injecting)
        ++R.InjectedFailures;
      else {
        Violate("interprocedural seed parse failed", S.Message);
        return R;
      }
    } else {
      api::LintRequest Request;
      Request.Jobs = 1;
      api::LintSummary L1 = Session.lint(LintProg, Request);
      if (L1.InternalError) {
        Violate("linter internal error", L1.InternalDetail);
        return R;
      }
      Request.Jobs = 4;
      api::LintSummary L4 = Session.lint(LintProg, Request);
      if (L4.InternalError) {
        Violate("linter internal error", L4.InternalDetail);
        return R;
      }
      if (L1.FindingsDigest != L4.FindingsDigest || L1.Errors != L4.Errors ||
          L1.Warnings != L4.Warnings || L1.Notes != L4.Notes) {
        Violate("lint findings differ across worker counts",
                "jobs=1 digest " + std::to_string(L1.FindingsDigest) +
                    " vs jobs=4 digest " + std::to_string(L4.FindingsDigest));
        return R;
      }
    }
  }

  if (Config.Lint && !Injecting) {
    // Identity must validate: a unit is semantically equivalent to its
    // own clone, or the validator has a false positive.
    api::Program Clone = Program.clone();
    if (api::Status S = Session.validateEquivalence(Program, Clone); !S.Ok) {
      Violate("semantic validator rejected identity", S.Message);
      return R;
    }
  }

  api::OptimizeOptions Options;
  Options.OnError = "rollback";
  // The thorough verifier after every pass, not just the label checks the
  // rollback policy runs anyway: its layout check holds each pass's cached
  // relaxation against a cold one, so a pass that edits without dirtying
  // the layout is caught in the pipeline that did it.
  Options.VerifyAfterEachPass = true;
  // Clean-path + --lint: all candidate passes are semantics-preserving, so
  // a reported divergence is a validator false positive (or a real pass
  // bug) — either way a property violation, surfaced below as a clean-path
  // pass failure.
  Options.Validate = (Config.Lint && !Injecting) ? "semantic" : "off";

  std::vector<api::PassSpec> Pipeline = randomPipeline(Seed);
  api::OptimizeResult Result = Session.optimize(Program, Pipeline, Options);
  if (!Result.Ok) {
    // Under rollback the pipeline always completes; Ok=false means the
    // runner itself misbehaved.
    Violate("pipeline aborted under rollback policy", Result.Error);
    return R;
  }
  if (Result.Failures > 0) {
    if (Injecting) {
      R.InjectedFailures += Result.Failures;
    } else {
      for (const api::PassOutcomeInfo &Outcome : Result.Outcomes)
        if (Outcome.Status != "ok")
          Violate("pass failed on clean path",
                  Outcome.Pass + ": " + Outcome.Detail);
      return R;
    }
  }

  if (api::Status S = Session.verify(Program); !S.Ok) {
    if (Injecting)
      ++R.InjectedFailures; // Verifier itself hit an injected encoder fault.
    else
      Violate("verifier rejected optimized unit", S.Message);
    return R;
  }

  if (Config.Verbose)
    std::fprintf(stderr,
                 "maofuzz: seed %llu ok (%zu passes, %u contained faults)\n",
                 static_cast<unsigned long long>(Seed), Pipeline.size(),
                 R.InjectedFailures);
  return R;
}

/// One --serve iteration: cache-path byte-identity plus wire/entry
/// corruption properties, all derived from \p Seed.
IterationResult runServeOne(uint64_t Seed, const FuzzConfig &Config) {
  IterationResult R;
  const bool Injecting = !Config.InjectSpec.empty();
  api::Session::Config SessionConfig;
  SessionConfig.StderrDiagnostics = false;

  auto Violate = [&](const char *What, const std::string &Detail) {
    std::fprintf(stderr, "maofuzz: seed %llu: serve: %s: %s\n",
                 static_cast<unsigned long long>(Seed), What, Detail.c_str());
    R.PropertyViolated = true;
  };

  api::CachedRunRequest Request;
  Request.Source = generateWorkloadAssembly(randomSpec(Seed));
  Request.Name = "fuzz.s";
  Request.Pipeline = randomPipeline(Seed);
  Request.Options.OnError = "rollback";

  // Reference bytes: a cache-less compute through a fresh session. The
  // fs/protocol fault domain never touches this path, so it is the fixed
  // point every cached variant must reproduce byte-for-byte.
  api::CachedRunResult Direct;
  {
    api::Session Session(SessionConfig);
    if (api::Status S = Session.cacheRun(Request, Direct); !S.Ok) {
      if (Injecting)
        ++R.InjectedFailures;
      else
        Violate("direct compute failed", S.Message);
      return R;
    }
  }

  // Cold miss, then warm lookup, through the shared cache directory. An
  // injected store or read fault may cost the hit — never the bytes.
  api::Session Session(SessionConfig);
  if (api::Status S = Session.cacheOpen(Config.ServeCacheDir); !S.Ok) {
    Violate("cacheOpen failed", S.Message);
    return R;
  }
  api::CachedRunResult Cold, Warm;
  if (api::Status S = Session.cacheRun(Request, Cold); !S.Ok) {
    if (Injecting)
      ++R.InjectedFailures;
    else
      Violate("cold cacheRun failed", S.Message);
    return R;
  }
  if (!Cold.Diagnostic.empty() && Injecting)
    ++R.InjectedFailures; // A contained store fault.
  if (Cold.Output != Direct.Output) {
    Violate("cold output differs from direct compute", "byte mismatch");
    return R;
  }
  if (api::Status S = Session.cacheRun(Request, Warm); !S.Ok) {
    if (Injecting)
      ++R.InjectedFailures;
    else
      Violate("warm cacheRun failed", S.Message);
    return R;
  }
  if (Warm.Output != Direct.Output) {
    Violate("warm output differs from direct compute", "byte mismatch");
    return R;
  }
  if (!Injecting) {
    if (!Warm.CacheHit) {
      Violate("warm run missed", Warm.Diagnostic);
      return R;
    }
    if (Warm.ReportJson != Cold.ReportJson) {
      Violate("warm report differs from cold report", "byte mismatch");
      return R;
    }
    // Paranoia mode: recompute the hit and compare against stored bytes.
    api::CachedRunRequest Paranoid = Request;
    Paranoid.VerifyHit = true;
    api::CachedRunResult Verified;
    if (api::Status S = Session.cacheRun(Paranoid, Verified); !S.Ok) {
      Violate("--cache-verify style recompute diverged", S.Message);
      return R;
    }
  }

  // Wire codec round trip for a request carrying this iteration's source.
  serve::ServeRequest Wire;
  Wire.Name = "fuzz.s";
  Wire.Source = Request.Source;
  Wire.Pipeline = api::Session::canonicalPipelineSpec(Request.Pipeline);
  const std::string Payload = serve::encodeRequest(Wire);
  serve::ServeRequest Decoded;
  if (MaoStatus S = serve::decodeRequest(Payload, Decoded)) {
    Violate("request codec failed to round-trip", S.message());
    return R;
  }
  if (Decoded.Source != Wire.Source || Decoded.Pipeline != Wire.Pipeline) {
    Violate("request codec changed the payload", "field mismatch");
    return R;
  }

  // Frame transport: over a pipe the frame either arrives with an
  // identical payload or fails (checksum/truncation, injected or real) —
  // it can never arrive with different bytes.
  RandomSource Rng(Seed * 0x2545f4914f6cdd1dULL + 3);
  int Fds[2];
  if (::pipe(Fds) == 0) {
    serve::Frame Out{serve::FrameKind::Request, Payload};
    MaoStatus WriteS = serve::writeFrame(Fds[1], Out);
    ::close(Fds[1]);
    if (!WriteS) {
      serve::Frame In;
      bool CleanEof = false;
      if (MaoStatus S = serve::readFrame(Fds[0], In, CleanEof)) {
        if (Injecting)
          ++R.InjectedFailures; // FaultSite::Frame truncation, contained.
        else
          Violate("frame failed to round-trip", S.message());
      } else if (In.Payload != Payload) {
        Violate("frame arrived with different bytes", "payload mismatch");
      }
    }
    ::close(Fds[0]);
    if (R.PropertyViolated)
      return R;
  }

  // Transit corruption: flip one seed-derived bit anywhere in a captured
  // frame. The reader must reject it or deliver the identical payload
  // (only the unchecked padding byte can survive a flip) — never
  // different bytes.
  if (::pipe(Fds) == 0) {
    std::string Captured;
    {
      int CapFds[2];
      if (::pipe(CapFds) == 0) {
        (void)serve::writeFrame(CapFds[1], {serve::FrameKind::Request,
                                            Payload});
        ::close(CapFds[1]);
        char Buf[4096];
        ssize_t N;
        while ((N = ::read(CapFds[0], Buf, sizeof(Buf))) > 0)
          Captured.append(Buf, static_cast<size_t>(N));
        ::close(CapFds[0]);
      }
    }
    if (!Captured.empty()) {
      const size_t Byte = Rng.nextBelow(Captured.size());
      Captured[Byte] = static_cast<char>(
          Captured[Byte] ^ (1u << Rng.nextBelow(8)));
      (void)::write(Fds[1], Captured.data(), Captured.size());
      ::close(Fds[1]);
      serve::Frame In;
      bool CleanEof = false;
      MaoStatus S = serve::readFrame(Fds[0], In, CleanEof);
      if (S.ok() && In.Payload != Payload) {
        Violate("corrupted frame delivered different bytes",
                "flip at byte " + std::to_string(Byte));
      }
    } else {
      ::close(Fds[1]);
    }
    ::close(Fds[0]);
    if (R.PropertyViolated)
      return R;
  }

  // On-disk corruption: a bit-flipped serialized entry must never parse
  // (every byte, trailer included, is under the checksum).
  {
    serve::CacheEntry Entry;
    Entry.set("output", Direct.Output);
    Entry.set("report", Direct.ReportJson);
    std::string Bytes = serve::ArtifactCache::serializeEntry(Seed, Entry);
    const size_t Byte = Rng.nextBelow(Bytes.size());
    Bytes[Byte] = static_cast<char>(Bytes[Byte] ^ (1u << Rng.nextBelow(8)));
    serve::CacheEntry Parsed;
    if (serve::ArtifactCache::parseEntry(Bytes, Seed, Parsed).ok()) {
      Violate("bit-flipped cache entry parsed",
              "flip at byte " + std::to_string(Byte));
      return R;
    }
  }

  if (Config.Verbose)
    std::fprintf(stderr, "maofuzz: seed %llu serve ok (%u contained faults)\n",
                 static_cast<unsigned long long>(Seed), R.InjectedFailures);
  return R;
}

/// One --synth iteration: prover-consistency and determinism properties of
/// the rule-synthesis pipeline over this seed's workload.
IterationResult runSynthOne(uint64_t Seed, const FuzzConfig &Config) {
  IterationResult R;

  auto Violate = [&](const char *What, const std::string &Detail) {
    std::fprintf(stderr, "maofuzz: seed %llu: synth: %s: %s\n",
                 static_cast<unsigned long long>(Seed), What, Detail.c_str());
    R.PropertyViolated = true;
  };

  const std::string Asm = generateWorkloadAssembly(randomSpec(Seed));
  std::vector<std::pair<std::string, std::string>> Corpus;
  Corpus.emplace_back("fuzz.s", Asm);

  // Harvest must produce well-formed, renderable windows (every template
  // must parse back to itself — the canonical-text contract dedup and the
  // emitter both rely on).
  std::vector<synth::HarvestedWindow> Windows =
      synth::harvestWindows(Corpus, /*MaxWindow=*/2, nullptr);
  for (const synth::HarvestedWindow &W : Windows) {
    const std::string Text = PeepholeRule::renderTemplates(W.Insns);
    std::vector<TemplateInsn> Reparsed;
    if (MaoStatus S = parseTemplates(Text, Reparsed)) {
      Violate("harvested window does not re-parse", Text + ": " + S.message());
      return R;
    }
    if (PeepholeRule::renderTemplates(Reparsed) != Text) {
      Violate("harvested window render round-trip changed", Text);
      return R;
    }
  }

  // Prover consistency: whatever the symbolic oracle accepts, the
  // independent SemanticValidator recheck must accept too (with the
  // oracle's derived dead-flags guard attached). A disagreement means one
  // of the two provers is wrong about x86 semantics. Bounded per seed to
  // keep the smoke test's wall-clock flat.
  unsigned Rechecked = 0;
  for (const synth::HarvestedWindow &W : Windows) {
    if (Rechecked >= 12)
      break;
    for (const std::vector<TemplateInsn> &Candidate :
         synth::enumerateCandidates(W.Insns)) {
      uint8_t DeadFlags = 0;
      if (!synth::proveWindowRewrite(W.Insns, Candidate, DeadFlags))
        continue;
      PeepholeRule Rule;
      Rule.Name = "FUZZ_SYN";
      Rule.Group = "synth";
      Rule.Strategy = RuleStrategy::Window;
      Rule.Pattern = PeepholeRule::renderTemplates(W.Insns);
      Rule.Guards = renderWindowGuards(DeadFlags);
      Rule.Replacement = PeepholeRule::renderTemplates(Candidate);
      if (MaoStatus S = compilePeepholeRule(Rule)) {
        Violate("proven rewrite does not compile as a rule",
                Rule.Pattern + " -> " + Rule.Replacement + ": " + S.message());
        return R;
      }
      if (MaoStatus S = synth::verifyRuleWithValidator(Rule)) {
        Violate("validator rejects an oracle-proven rewrite",
                Rule.Pattern + " -> " + Rule.Replacement + ": " + S.message());
        return R;
      }
      if (++Rechecked >= 12)
        break;
    }
  }

  // End to end: a bounded synthesis run over this corpus must emit a
  // byte-identical table for one and two workers.
  synth::SynthOptions Options;
  Options.Corpus = Corpus;
  Options.IncludeWorkloads = false;
  Options.MaxWindow = 2;
  Options.MaxRules = 4;
  Options.Seed = Seed;
  Options.LoopIterations = 64;
  Options.Jobs = 1;
  auto One = synth::synthesizeRules(Options);
  Options.Jobs = 2;
  auto Two = synth::synthesizeRules(Options);
  if (!One.ok() || !Two.ok()) {
    Violate("synthesis run failed",
            !One.ok() ? One.message() : Two.message());
    return R;
  }
  if (One->TableText != Two->TableText) {
    Violate("emitted table differs across worker counts", "byte mismatch");
    return R;
  }
  if (One->Stats.ShardFailures != 0 || Two->Stats.ShardFailures != 0) {
    Violate("synthesis shard failed on clean path",
            std::to_string(One->Stats.ShardFailures + Two->Stats.ShardFailures) +
                " dropped windows");
    return R;
  }
  if (One->Stats.CandidatesProven != One->Stats.CandidatesVerified) {
    Violate("provers disagree inside the pipeline",
            std::to_string(One->Stats.CandidatesProven) + " proven vs " +
                std::to_string(One->Stats.CandidatesVerified) + " verified");
    return R;
  }

  if (Config.Verbose)
    std::fprintf(stderr,
                 "maofuzz: seed %llu synth ok (%zu windows, %u rechecks, "
                 "%llu rules)\n",
                 static_cast<unsigned long long>(Seed), Windows.size(),
                 Rechecked,
                 static_cast<unsigned long long>(One->Stats.RulesEmitted));
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzConfig Config;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const std::string &Prefix) {
      return Arg.substr(Prefix.size());
    };
    if (Arg.rfind("--seeds=", 0) == 0) {
      Config.Seeds = static_cast<unsigned>(std::atoi(Value("--seeds=").c_str()));
      if (Config.Seeds == 0) {
        std::fprintf(stderr, "maofuzz: --seeds must be positive\n");
        return 2;
      }
    } else if (Arg.rfind("--seed-base=", 0) == 0) {
      Config.SeedBase = std::strtoull(Value("--seed-base=").c_str(), nullptr, 10);
    } else if (Arg.rfind("--inject=", 0) == 0) {
      std::string Spec = Value("--inject=");
      size_t At = Spec.rfind('@');
      if (At != std::string::npos) {
        Config.InjectSeed = std::strtoull(Spec.substr(At + 1).c_str(),
                                          nullptr, 10);
        Spec = Spec.substr(0, At);
      }
      Config.InjectSpec = Spec;
    } else if (Arg == "--lint") {
      Config.Lint = true;
    } else if (Arg == "--serve") {
      Config.Serve = true;
    } else if (Arg == "--synth") {
      Config.Synth = true;
    } else if (Arg == "-v" || Arg == "--verbose") {
      Config.Verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: maofuzz [--seeds=N] [--seed-base=B] "
                   "[--inject=site:permille,...[@seed]] [--lint] [--serve] "
                   "[--synth] [-v]\n");
      return 2;
    }
  }
  if (Config.Synth && !Config.InjectSpec.empty()) {
    // The synthesis pipeline has no fault sites; an armed injector would
    // only skew the parse-side counters. Keep the mode clean-path only.
    std::fprintf(stderr, "maofuzz: --synth does not combine with --inject\n");
    return 2;
  }

  std::string ServeCacheRoot;
  if (Config.Serve) {
    char Template[] = "/tmp/maofuzz-serve-XXXXXX";
    const char *Dir = mkdtemp(Template);
    if (!Dir) {
      std::fprintf(stderr, "maofuzz: cannot create serve cache dir\n");
      return 2;
    }
    ServeCacheRoot = Dir;
    Config.ServeCacheDir = ServeCacheRoot + "/cache";
  }

  unsigned Violations = 0;
  unsigned ContainedFaults = 0;
  for (unsigned I = 0; I < Config.Seeds; ++I) {
    uint64_t Seed = Config.SeedBase + I;
    if (!Config.InjectSpec.empty()) {
      // Re-arm per iteration so any failure reproduces from (spec, seed)
      // alone, independent of how many faults earlier iterations drew.
      api::Session ArmSession;
      if (api::Status S = ArmSession.armFaultInjection(Config.InjectSpec,
                                                       Config.InjectSeed + I);
          !S.Ok) {
        std::fprintf(stderr, "maofuzz: %s\n", S.Message.c_str());
        return 2;
      }
    }
    IterationResult R = Config.Synth   ? runSynthOne(Seed, Config)
                        : Config.Serve ? runServeOne(Seed, Config)
                                       : runOne(Seed, Config);
    if (R.PropertyViolated)
      ++Violations;
    ContainedFaults += R.InjectedFailures;
  }

  if (!ServeCacheRoot.empty())
    std::system(("rm -rf '" + ServeCacheRoot + "'").c_str());

  std::printf("maofuzz: %u seeds, %u violations, %u contained injected "
              "faults\n",
              Config.Seeds, Violations, ContainedFaults);
  return Violations == 0 ? 0 : 1;
}
