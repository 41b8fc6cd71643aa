//===- perfbench/src/Corpus.cpp - corpus_align and corpus_peep ------------===//
///
/// \file
/// The two compile workloads over the Google-scale corpus stand-in. One
/// pass is what `mao --mao=<pipeline> --mao-jobs=1 in.s` does: parse,
/// optimize, emit, through the public facade, starting from a cold
/// encoding-length cache as a fresh driver process would.
///
/// Two program defects shape the configuration; a benchmark run must not
/// die at random, so both are kept out until they are fixed:
///
///  - The passes run with one job. With more, sibling shards of REDTEST
///    and SCHED race: CFG::readJumpTable walks the whole unit's entry list
///    while other shards erase entries, and a corpus compile dies with
///    SIGSEGV now and then. The output is the same bytes at every job
///    count by contract.
///  - ADDADD runs last. It can erase the first instruction after a
///    `.text` that resumes a function (the corpus returns to .text after
///    every jump table), which is where MaoUnit's cached function and
///    section ranges begin. Passes do not rebuild those views, so the next
///    pass that walks the function reads a freed entry: at HEAD,
///    `ZEE:REDTEST:REDMOV:ADDADD:SCHED` on googleCorpusProfile(1.0) with
///    --seed 3 dies in SCHED's CFG::build. After ADDADD come only
///    emission (which walks the entry list), verifyUnit (which rebuilds
///    the views first) and checks on a re-parsed output. The other passes
///    erase only the second instruction of their patterns, never the
///    first of a block.
///
///  - corpus_align: googleCorpusProfile(0.25) with the alignment pass
///    LOOP16 in the pipeline, so whole-unit relaxation dominates.
///  - corpus_peep: googleCorpusProfile(1.0) without alignment passes, so
///    parse, structure build, the peepholes and emit dominate.
///
/// The traced run additionally walks the layers one public call at a time
/// (parseAssembly, rebuildStructure, relaxUnit cold and warm, one
/// runPasses per pass, verifyUnit, emitAssembly, assembleUnit) and checks
/// that the per-pass split emits exactly what the single call does.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Relaxer.h"
#include "asm/AsmEmitter.h"
#include "asm/Assembler.h"
#include "asm/Parser.h"
#include "ir/Verifier.h"
#include "mao/Mao.h"
#include "serve/ArtifactCache.h"
#include "pass/MaoPass.h"
#include "support/Options.h"
#include "workload/Workload.h"

#include <memory>

using namespace mao;

namespace perfbench {
namespace {

constexpr unsigned Jobs = 1;

struct CorpusConfig {
  double Scale;
  const char *Pipeline; ///< Classic --mao= spelling.
};

CorpusConfig configFor(const Options &O) {
  const bool Align = O.Workload == "corpus_align";
  CorpusConfig C;
  C.Scale = Align ? 0.25 : 1.0;
  if (O.Quick)
    C.Scale = Align ? 0.01 : 0.02;
  C.Pipeline = Align ? "ZEE:REDTEST:REDMOV:LOOP16:SCHED:ADDADD"
                     : "ZEE:REDTEST:REDMOV:SCHED:ADDADD";
  return C;
}

std::string corpusText(double Scale, uint64_t Seed) {
  WorkloadSpec Spec = googleCorpusProfile(Scale);
  Spec.Seed = mixSeed(Seed, 0);
  return generateWorkloadAssembly(Spec);
}

/// Everything a pass needs that is not part of the timed work.
struct Setup {
  std::string Text;
  std::unique_ptr<api::Session> S;
  std::vector<api::PassSpec> Pipeline;
};

Setup setUp(const CorpusConfig &C, uint64_t Seed) {
  Setup U;
  U.Text = corpusText(C.Scale, Seed);
  U.S = std::make_unique<api::Session>();
  (void)api::Session::parseClassicSpec(C.Pipeline, U.Pipeline);
  warmUp(*U.S);
  return U;
}

struct Compiled {
  bool Ok = false;
  std::string Why;
  std::string Out;
  double OptimizeMs = 0;
};

/// One pass of the workload: parse → optimize → emit through the facade.
Compiled compile(Setup &U, Tracer &T, uint64_t Req) {
  Compiled C;
  Tracer::Scope Whole = T.span("bench.compile", Req);
  api::Program P;
  api::Status Parsed;
  timedMs(T, "asm.parseText", Req,
          [&] { Parsed = U.S->parseText(U.Text, "corpus.s", P); });
  if (!Parsed.Ok) {
    C.Why = "parse failed: " + Parsed.Message;
    return C;
  }
  api::OptimizeOptions Opts;
  Opts.Jobs = Jobs;
  api::OptimizeResult R;
  C.OptimizeMs = timedMs(T, "pass.optimize", Req,
                         [&] { R = U.S->optimize(P, U.Pipeline, Opts); });
  if (!R.Ok) {
    C.Why = "pipeline failed: " + R.Error;
    return C;
  }
  for (const api::PassOutcomeInfo &Outcome : R.Outcomes)
    if (Outcome.Status != "ok") {
      C.Why = "pass " + Outcome.Pass + " ended " + Outcome.Status;
      return C;
    }
  timedMs(T, "asm.emitToString", Req, [&] { C.Out = U.S->emitToString(P); });
  C.Ok = true;
  return C;
}

/// The per-layer walk over internal public functions, one call at a time.
struct Walk {
  bool Ok = false;
  std::string Why;
  std::string Out;
  double ParseMs = 0, StructureMs = 0, RelaxColdMs = 0, RelaxWarmMs = 0;
  double VerifyMs = 0, EmitMs = 0, AssembleMs = 0;
  unsigned RelaxIterations = 0;
  unsigned ShrunkBranches = 0;
  std::map<std::string, std::pair<double, unsigned>> Passes; ///< ms, edits
};

Walk layerWalk(const std::string &Text, const char *Pipeline, Tracer &T,
               uint64_t Req, bool AuditOptimal) {
  Walk W;
  Tracer::Scope Whole = T.span("bench.layer_walk", Req);
  ErrorOr<MaoUnit> Parsed = MaoStatus::error("not parsed");
  W.ParseMs = timedMs(T, "asm.parseAssembly", Req,
                      [&] { Parsed = parseAssembly(Text, nullptr, "c.s"); });
  if (!Parsed.ok()) {
    W.Why = "parseAssembly failed: " + Parsed.message();
    return W;
  }
  MaoUnit Unit = std::move(*Parsed);
  W.StructureMs = timedMs(T, "ir.rebuildStructure", Req,
                          [&] { Unit.rebuildStructure(); });
  RelaxationResult Cold;
  W.RelaxColdMs = timedMs(T, "analysis.relaxUnit.cold", Req,
                          [&] { Cold = relaxUnit(Unit); });
  W.RelaxIterations = Cold.Iterations;
  // Re-relaxing a converged unit is what every alignment pass does once
  // per function; the median of three damps scheduler noise.
  std::vector<double> Warm;
  for (int I = 0; I < 3; ++I)
    Warm.push_back(timedMs(T, "analysis.relaxUnit.warm", Req,
                           [&] { (void)relaxUnit(Unit); }));
  W.RelaxWarmMs = median(Warm);
  if (!Cold.Converged) {
    W.Why = "relaxation did not converge";
    return W;
  }

  std::vector<PassRequest> Requests;
  if (MaoStatus S = parseMaoOption(Pipeline, Requests)) {
    W.Why = "bad pipeline: " + S.message();
    return W;
  }
  PipelineOptions Opts;
  Opts.Jobs = Jobs;
  for (const PassRequest &One : Requests) {
    PipelineResult PR;
    const double Ms = timedMs(T, "passes." + One.PassName, Req,
                              [&] { PR = runPasses(Unit, {One}, Opts); });
    if (!PR.Ok || PR.Outcomes.size() != 1 ||
        PR.Outcomes[0].Status != PassStatus::Ok) {
      W.Why = "pass " + One.PassName + " failed: " + PR.Error;
      return W;
    }
    W.Passes[One.PassName] = {Ms, PR.Outcomes[0].Transformations};
  }
  VerifierReport VR;
  W.VerifyMs =
      timedMs(T, "ir.verifyUnit", Req, [&] { VR = verifyUnit(Unit); });
  if (!VR.clean()) {
    W.Why = "verifyUnit: " + VR.firstMessage();
    return W;
  }
  W.EmitMs = timedMs(T, "asm.emitAssembly", Req,
                     [&] { W.Out = emitAssembly(Unit); });
  ErrorOr<SectionBytes> Bytes = MaoStatus::error("not assembled");
  W.AssembleMs = timedMs(T, "asm.assembleUnit", Req,
                         [&] { Bytes = assembleUnit(Unit); });
  if (!Bytes.ok()) {
    W.Why = "assembleUnit failed: " + Bytes.message();
    return W;
  }
  if (AuditOptimal) {
    // How many branches the minimal-size audit would shrink in the output
    // (the pipeline itself relaxes in the default grow mode).
    MaoUnit Copy = Unit.clone();
    Copy.rebuildStructure();
    const RelaxMode Saved = relaxMode();
    setRelaxMode(RelaxMode::Optimal);
    RelaxationResult Audit;
    timedMs(T, "analysis.relaxUnit.optimal", Req,
            [&] { Audit = relaxUnit(Copy); });
    setRelaxMode(Saved);
    W.ShrunkBranches = Audit.ShrunkBranches;
  }
  W.Ok = true;
  return W;
}

/// Checks run once on the pass output, outside the timed passes: the
/// per-pass split \p W (one runPasses call per pass on a freshly parsed
/// unit) emitted the same bytes, and checkProgram's re-parse, verify and
/// assemble pass (semantic validation would take far longer than the
/// timed passes).
ProgramFacts checkOutput(Setup &U, const Walk &W, const std::string &Out,
                         Result &R, Tracer &T, UarchTally &Uarch) {
  if (R.check(W.Ok, W.Why))
    R.check(W.Out == Out,
            "per-pass split output differs from the single-call pipeline");
  return checkProgram(*U.S, "corpus", U.Text, Out, /*Equivalence=*/false, R,
                      T, Uarch);
}

void reportInput(const Result &R, const Options &O, const CorpusConfig &C,
                 const std::string &Text) {
  ParseStats Stats;
  (void)parseAssembly(Text, &Stats, "c.s");
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "input %s: googleCorpusProfile(%g) seed %llu, %zu insts, "
                "%zu bytes, fnv1a %016llx, pipeline %s, jobs %u",
                O.Workload.c_str(), C.Scale, (unsigned long long)O.Seed,
                Stats.Instructions, Text.size(),
                (unsigned long long)serve::fnv1a64(Text), C.Pipeline, Jobs);
  R.note(Line);
}

void untracedRun(const Options &O, const CorpusConfig &C, Result &R) {
  Tracer Off(false);
  EndToEnd E;
  Setup U = timedSetUps(O, E.SetupSeconds, [&](int) { return setUp(C, O.Seed); });
  reportInput(R, O, C, U.Text);

  std::string Ref;
  E.LoopSeconds = runFor(O.Seconds, [&] {
    // A fresh driver process starts with an empty encoding-length cache.
    api::Session::resetGlobalStats();
    const Clock::time_point Start = Clock::now();
    const double Cpu0 = cpuSeconds();
    Compiled Pass = compile(U, Off, E.PassSeconds.size());
    E.PassCpuSeconds.push_back(cpuSeconds() - Cpu0);
    E.PassSeconds.push_back(secondsSince(Start));
    E.RequestMs.push_back(E.PassSeconds.back() * 1e3);
    if (!R.check(Pass.Ok, Pass.Why))
      return;
    if (Ref.empty())
      Ref = std::move(Pass.Out);
    else
      R.check(Pass.Out == Ref, "pass output differs from the first pass");
  });

  const Walk W = layerWalk(U.Text, C.Pipeline, Off, 0, /*AuditOptimal=*/false);
  if (O.Corrupt)
    flipOneByte(Ref);
  UarchTally Uarch;
  const ProgramFacts F = checkOutput(U, W, Ref, R, Off, Uarch);
  E.OutBytes = F.Bytes;
  E.Speedup = F.Ok ? F.speedup() : 0;
  E.report(R);
}

void tracedRun(const Options &O, const CorpusConfig &C, Result &R,
               Tracer &T) {
  Tracer Off(false);
  Setup U = setUp(C, O.Seed);
  reportInput(R, O, C, U.Text);

  // Untraced and traced passes over the same calls: their ratio is the
  // tracer's own cost.
  const int Reps = O.Quick ? 1 : 3;
  std::vector<double> Plain, Traced, PipelineMs;
  std::string Ref;
  ReportCounters Counts;
  for (int Traced01 = 0; Traced01 < 2; ++Traced01)
    for (int I = 0; I < Reps; ++I) {
      api::Session::resetGlobalStats();
      const uint64_t Req = 1 + Traced01 * Reps + I;
      const Clock::time_point Start = Clock::now();
      Compiled Pass = compile(U, Traced01 ? T : Off, Req);
      (Traced01 ? Traced : Plain).push_back(secondsSince(Start));
      if (Traced01) {
        Counts = readReportCounters();
        PipelineMs.push_back(Pass.OptimizeMs);
      }
      if (!R.check(Pass.Ok, Pass.Why))
        continue;
      if (Ref.empty())
        Ref = std::move(Pass.Out);
      else
        R.check(Pass.Out == Ref, "pass output differs from the first pass");
    }
  api::Session::resetGlobalStats();
  Walk W = layerWalk(U.Text, C.Pipeline, T, 200, /*AuditOptimal=*/true);
  if (O.Corrupt)
    flipOneByte(Ref);
  UarchTally Uarch;
  checkOutput(U, W, Ref, R, T, Uarch);

  R.metric("relax.cold_ms", W.RelaxColdMs, "ms");
  R.metric("relax.warm_ms", W.RelaxWarmMs, "ms");
  R.metric("relax.iterations", W.RelaxIterations, "count");
  R.metric("relax.shrunk_branches", W.ShrunkBranches, "count");
  for (const auto &[Pass, MsEdits] : W.Passes) {
    R.metric("pass." + Pass + ".ms", MsEdits.first, "ms");
    R.metric("pass." + Pass + ".transformations", MsEdits.second, "count");
  }
  if (O.Workload == "corpus_align") {
    // The scale ladder: the same walk at half the input. A linear layer
    // grows 2x per doubling; LOOP16's whole-unit re-relaxation does not.
    const std::string Half = corpusText(C.Scale / 2, O.Seed);
    Walk H = layerWalk(Half, C.Pipeline, T, 300, /*AuditOptimal=*/false);
    const bool Ok = R.check(H.Ok, "half-scale walk: " + H.Why);
    R.metric("relax.warm_growth_x", Ok ? W.RelaxWarmMs / H.RelaxWarmMs : 0,
             "ratio");
    R.metric("pass.LOOP16.growth_x",
             Ok ? W.Passes["LOOP16"].first / H.Passes["LOOP16"].first : 0,
             "ratio");
  }
  R.metric("pipeline.ms", median(PipelineMs), "ms");
  reportEncode(R, Counts);
  R.metric("peep.fires", Counts.PeepFires, "count");
  R.metric("asm.parse_ms", W.ParseMs, "ms");
  R.metric("asm.parse_mb_s",
           W.ParseMs > 0 ? U.Text.size() / 1048576.0 / (W.ParseMs / 1e3) : 0,
           "MiB/s");
  R.metric("asm.emit_ms", W.EmitMs, "ms");
  R.metric("asm.assemble_ms", W.AssembleMs, "ms");
  R.metric("ir.structure_ms", W.StructureMs, "ms");
  R.metric("ir.verify_ms", W.VerifyMs, "ms");
  Uarch.report(R);
  R.metric("trace.overhead_ratio", median(Traced) / median(Plain), "ratio");
}

} // namespace

void runCorpus(const Options &O, Result &R, Tracer &T) {
  const CorpusConfig C = configFor(O);
  if (T.enabled())
    tracedRun(O, C, R, T);
  else
    untracedRun(O, C, R);
}

} // namespace perfbench
