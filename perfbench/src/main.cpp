//===- perfbench/src/main.cpp - End-to-end benchmark driver ---------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--quick] [--corrupt] [--work-dir <dir>]
///
/// Runs one workload in-process through MAO's public facade and the maod
/// server/client, checks every output, and prints human-readable lines
/// followed by one JSON line: {"correct", "attempted", "failed",
/// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
/// --trace 1 they are the per-layer ones the workload measures, and the
/// spans are written to <work-dir>/trace-<workload>-<seed>.json as Chrome
/// trace-event JSON. run.py checks the names against BENCHMARK.json.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{corpus_align,corpus_peep,spec_tune,serve_mix} --seed N "
               "--seconds S --trace {0,1} [--quick] [--corrupt] "
               "[--work-dir DIR]\n",
               Why);
  return 2;
}

void printSelfTimes(const Tracer &T) {
  std::printf("self time by layer (ms):");
  for (const auto &[Layer, Ms] : T.selfMsByLayer())
    std::printf(" %s=%.1f", Layer.c_str(), Ms);
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    const bool HasValue = I + 1 < argc;
    if (Arg == "--quick")
      O.Quick = true;
    else if (Arg == "--corrupt")
      O.Corrupt = true;
    else if (!HasValue)
      return usage(("missing value for " + Arg).c_str());
    else if (Arg == "--workload")
      O.Workload = argv[++I];
    else if (Arg == "--seed")
      O.Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::strtod(argv[++I], nullptr);
    else if (Arg == "--trace") {
      O.Trace = std::strcmp(argv[++I], "0") != 0;
      HaveTrace = true;
    } else if (Arg == "--work-dir")
      O.WorkDir = argv[++I];
    else
      return usage(("unknown argument " + Arg).c_str());
  }
  if (O.Workload.empty() || !HaveTrace || !(O.Seconds > 0))
    return usage("--workload, --trace and a positive --seconds are required");

  void (*Run)(const Options &, Result &, Tracer &) = nullptr;
  if (O.Workload == "corpus_align" || O.Workload == "corpus_peep")
    Run = runCorpus;
  else if (O.Workload == "spec_tune")
    Run = runSpecTune;
  else if (O.Workload == "serve_mix")
    Run = runServeMix;
  else
    return usage(("unknown workload " + O.Workload).c_str());

  Result R;
  Tracer T(O.Trace);
  try {
    Run(O, R, T);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  if (T.enabled()) {
    printSelfTimes(T);
    const std::string Path = O.WorkDir + "/trace-" + O.Workload + "-" +
                             std::to_string(O.Seed) + ".json";
    if (T.writeChromeJson(Path))
      std::printf("trace written to %s\n", Path.c_str());
    else
      R.check(false, "cannot write trace file " + Path);
  }
  std::printf("fail_ratio %llu/%llu\n", (unsigned long long)R.failed(),
              (unsigned long long)R.attempted());
  std::printf("%s\n", R.json().c_str());
  return 0;
}
