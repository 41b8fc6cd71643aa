//===- perfbench/src/SpecTune.cpp - spec_tune -----------------------------===//
///
/// \file
/// Autotuning of six SPEC-profile programs: one pass parses each program
/// and runs Session::tune on it (budget small, core2, Jobs=1), then emits
/// the winner. The programs are small, so the uarch simulator and the
/// tuner's search do the work; this is the workload that measures the
/// quality of the generated code (simulated cycles of bench_main).
///
/// The six profiles are fixed and only their generator seeds come from
/// --seed: a free draw from all nineteen profiles would let one seed pick
/// 176.gcc (45 s of tuning on its own) and another only the smallest
/// programs, so the run-to-run spread would measure the draw, not MAO.
///
/// The tuner runs with one job. At Jobs=4 its wall time moved between 4.4
/// and 8.0 s per pass from one run to the next on a shared 4-vCPU VM while
/// its CPU time stayed within 4%: four threads waiting on each other
/// measured the host's load. One job also keeps the winner's final
/// application off the sharded pass path and its jump-table race (see
/// Corpus.cpp).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "mao/Mao.h"
#include "serve/ArtifactCache.h"
#include "workload/Workload.h"

#include <memory>

using namespace mao;

namespace perfbench {
namespace {

/// One per cost class of the suites, 2000 and 2006: two tiny programs,
/// two with default-pipeline regressions the tuner must undo (252.eon and
/// 454.calculix's opposite, a large default win), and two mid-sized ones.
const char *const Profiles[] = {"164.gzip",   "175.vpr",      "186.crafty",
                                "252.eon",    "454.calculix", "464.h264ref"};
const char *const QuickProfiles[] = {"181.mcf", "256.bzip2"};

struct Program {
  std::string Name;
  std::string Text;
};

struct Setup {
  std::vector<Program> Programs;
  std::unique_ptr<api::Session> S;
};

Setup setUp(const Options &O) {
  Setup U;
  std::vector<const char *> Names;
  if (O.Quick)
    Names.assign(std::begin(QuickProfiles), std::end(QuickProfiles));
  else
    Names.assign(std::begin(Profiles), std::end(Profiles));
  for (size_t I = 0; I < Names.size(); ++I) {
    WorkloadSpec Spec = *findBenchmarkProfile(Names[I]);
    Spec.Seed = mixSeed(O.Seed, I + 1);
    U.Programs.push_back({Names[I], generateWorkloadAssembly(Spec)});
  }
  U.S = std::make_unique<api::Session>();
  warmUp(*U.S);
  return U;
}

struct Tuned {
  bool Ok = false;
  std::string Why;
  std::string Out;
  api::TuneSummary Summary;
  double Ms = 0;     ///< The whole request.
  double TuneMs = 0; ///< Session::tune alone.
};

/// One request: parse → tune → emit the winner.
Tuned tuneOne(Setup &U, const Program &P, Tracer &T, uint64_t Req) {
  Tuned R;
  const Clock::time_point Start = Clock::now();
  Tracer::Scope Whole = T.span("bench.tune_program", Req);
  api::Program Prog;
  api::Status St;
  timedMs(T, "asm.parseText", Req,
          [&] { St = U.S->parseText(P.Text, P.Name + ".s", Prog); });
  if (!St.Ok) {
    R.Why = P.Name + ": parse failed: " + St.Message;
    return R;
  }
  api::TuneRequest Request;
  Request.Budget = "small";
  Request.Config = "core2";
  Request.Jobs = 1;
  R.TuneMs = timedMs(T, "tune.tune", Req,
                     [&] { St = U.S->tune(Prog, Request, R.Summary); });
  if (!St.Ok) {
    R.Why = P.Name + ": tune failed: " + St.Message;
    return R;
  }
  timedMs(T, "asm.emitToString", Req, [&] { R.Out = U.S->emitToString(Prog); });
  R.Ms = secondsSince(Start) * 1e3;
  R.Ok = true;
  return R;
}

/// One pass over every program. Ref holds the first pass's results and
/// every later pass must reproduce them exactly. Returns the pass's wall
/// seconds.
double tunePass(Setup &U, Tracer &T, uint64_t FirstReq,
                std::vector<Tuned> &Pass, std::vector<Tuned> &Ref,
                std::vector<double> &Latencies, Result &R) {
  const Clock::time_point Start = Clock::now();
  Pass.clear();
  for (size_t I = 0; I < U.Programs.size(); ++I) {
    Pass.push_back(tuneOne(U, U.Programs[I], T, FirstReq + I));
    Latencies.push_back(Pass.back().Ms);
  }
  const double Seconds = secondsSince(Start);
  for (size_t I = 0; I < Pass.size(); ++I) {
    if (!R.check(Pass[I].Ok, Pass[I].Why))
      continue;
    if (Ref.size() == Pass.size())
      R.check(Pass[I].Out == Ref[I].Out &&
                  Pass[I].Summary.TunedCycles == Ref[I].Summary.TunedCycles,
              U.Programs[I].Name + ": tuning is not deterministic");
  }
  if (Ref.empty())
    Ref = Pass;
  return Seconds;
}

struct OutputFacts {
  double Bytes = 0;
  std::vector<double> Tuned, Default; ///< baseline/tuned, baseline/default
  UarchTally Uarch;
};

/// checkProgram on every tuned program, with semantic validation against
/// its input (the programs are small), and a fresh measurement of the
/// emitted text must reproduce TunedCycles.
OutputFacts checkOutputs(Setup &U, std::vector<Tuned> &Ref, bool Corrupt,
                         Result &R, Tracer &T) {
  OutputFacts F;
  for (size_t I = 0; I < Ref.size(); ++I) {
    const Program &P = U.Programs[I];
    if (!Ref[I].Ok)
      continue;
    if (Corrupt && I == 0)
      flipOneByte(Ref[I].Out);
    const api::TuneSummary &S = Ref[I].Summary;
    const ProgramFacts PF = checkProgram(*U.S, P.Name, P.Text, Ref[I].Out,
                                         /*Equivalence=*/true, R, T, F.Uarch);
    F.Bytes += PF.Bytes;
    R.check(PF.OutCycles == S.TunedCycles,
            P.Name + ": re-measured cycles " + std::to_string(PF.OutCycles) +
                " != TunedCycles " + std::to_string(S.TunedCycles));
    if (R.check(S.TunedCycles > 0 && S.DefaultCycles > 0,
                P.Name + ": zero simulated cycles")) {
      F.Tuned.push_back(double(S.BaselineCycles) / S.TunedCycles);
      F.Default.push_back(double(S.BaselineCycles) / S.DefaultCycles);
    }
  }
  return F;
}

void reportInputs(const Result &R, const Setup &U, uint64_t Seed) {
  std::string Line = "input spec_tune: seed " + std::to_string(Seed) +
                     ", budget small, core2, jobs 1, profiles:";
  for (const Program &P : U.Programs) {
    api::Program Prog;
    api::ParseInfo Info;
    (void)U.S->parseText(P.Text, P.Name, Prog, &Info);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), " %s(%zu insts, %zu bytes, fnv1a %016llx)",
                  P.Name.c_str(), Info.Instructions, P.Text.size(),
                  (unsigned long long)serve::fnv1a64(P.Text));
    Line += Buf;
  }
  R.note(Line);
}

} // namespace

void runSpecTune(const Options &O, Result &R, Tracer &T) {
  Tracer Off(false);
  EndToEnd E;
  Setup U = timedSetUps(O, E.SetupSeconds, [&](int) { return setUp(O); });
  reportInputs(R, U, O.Seed);

  std::vector<Tuned> Ref;
  if (O.Trace) {
    // Untraced and traced passes: their ratio is the tracer's cost; the
    // last traced pass's results and counters give the tuner and
    // simulator numbers.
    const int Reps = O.Quick ? 1 : 2;
    std::vector<Tuned> Pass;
    std::vector<double> Plain, Traced;
    for (int I = 0; I < Reps; ++I)
      Plain.push_back(tunePass(U, Off, 1 + I * 100, Pass, Ref, E.RequestMs, R));
    for (int I = 0; I < Reps; ++I) {
      api::Session::resetGlobalStats();
      Traced.push_back(
          tunePass(U, T, 1001 + I * 100, Pass, Ref, E.RequestMs, R));
    }
    const ReportCounters Counts = readReportCounters();
    OutputFacts F = checkOutputs(U, Ref, O.Corrupt, R, T);
    double Evaluations = 0, Hits = 0, TuneMs = 0;
    for (const Tuned &One : Pass) {
      Evaluations += One.Summary.Evaluations;
      Hits += One.Summary.ScoreCacheHits;
      TuneMs += One.TuneMs;
    }
    R.metric("tune.evaluations", Evaluations, "count");
    R.metric("tune.ms_per_eval", Evaluations ? TuneMs / Evaluations : 0, "ms");
    R.metric("tune.score_cache_hit_ratio", Evaluations ? Hits / Evaluations : 0,
             "ratio");
    R.metric("tune.tuned_speedup_geo", geomean(F.Tuned), "ratio");
    R.metric("tune.default_speedup_geo", geomean(F.Default), "ratio");
    reportEncode(R, Counts);
    F.Uarch.report(R);
    R.metric("trace.overhead_ratio", median(Traced) / median(Plain), "ratio");
    return;
  }

  std::vector<Tuned> Pass;
  E.LoopSeconds = runFor(O.Seconds, [&] {
    const double Cpu0 = cpuSeconds();
    E.PassSeconds.push_back(tunePass(U, Off, 1 + E.PassSeconds.size() * 100,
                                     Pass, Ref, E.RequestMs, R));
    E.PassCpuSeconds.push_back(cpuSeconds() - Cpu0);
  });

  OutputFacts F = checkOutputs(U, Ref, O.Corrupt, R, Off);
  E.OutBytes = F.Bytes;
  E.Speedup = geomean(F.Tuned);
  E.report(R);
  char Line[96];
  std::snprintf(Line, sizeof(Line), "default-pipeline speedup geo %.4f",
                geomean(F.Default));
  R.note(Line);
}

} // namespace perfbench
