//===- perfbench/src/Bench.h - End-to-end benchmark plumbing ----*- C++ -*-===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: command-line options, the
/// per-run result (correctness accounting plus named metrics), sample
/// statistics, process resource probes, and the in-memory span tracer the
/// traced run uses to attribute time to MAO's layers.
///
/// The tracer records spans around the benchmark's own calls into each
/// layer's public functions (nothing inside the program is instrumented),
/// plus snapshots of the counters the run report already exports, and
/// writes them at exit as Chrome trace-event JSON.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "mao/Mao.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// User plus system CPU seconds of this process (all threads) so far.
double cpuSeconds();
/// Peak resident set of this process so far, in MiB.
double peakRssMb();

/// Mixes a seed and a stream index into a generator seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

double median(std::vector<double> Values);
/// Nearest-rank percentile \p P (0..100) of \p Values.
double percentile(std::vector<double> Values, double P);
double geomean(const std::vector<double> &Values);
/// The highest whole percentile with at least ten samples above it, or 0
/// when \p Samples is too small for any (printed next to tail latencies).
unsigned supportedPercentile(size_t Samples);

/// The run-report counters the traced run samples at span boundaries.
struct ReportCounters {
  uint64_t EncodeHits = 0;
  uint64_t EncodeMisses = 0;
  uint64_t EncodeEntries = 0;
  uint64_t UarchRuns = 0;
  uint64_t PeepFires = 0;      ///< Sum of every peep.fire.<rule> counter.
  uint64_t ScoreCacheHits = 0; ///< tune.cache_served.
};
ReportCounters readReportCounters();

/// Set-ups per untraced run (two in --quick); setup_s is their median.
constexpr int SetUpRuns = 21;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs and short runs: the self-test mode.
  bool Quick = false;
  /// Flip one byte of one output before it is checked (self-test of the
  /// correctness checks: the run must then report correct=false).
  bool Corrupt = false;
  /// Scratch directory for caches, sockets and trace files.
  std::string WorkDir = ".";

  int setUps() const { return Trace ? 1 : Quick ? 2 : SetUpRuns; }
};

/// One run's outcome: operations attempted and failed (every correctness
/// check is an operation), and the metrics to print.
class Result {
public:
  /// Counts one operation; a false \p Ok records \p Why as a failure.
  bool check(bool Ok, const std::string &Why);
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Prints one human-readable line (kept off the last line of stdout).
  void note(const std::string &Line) const;
  /// Prints "<Label> (n=N): v1 v2 ..." for a series of samples.
  void noteSeries(const std::string &Label,
                  const std::vector<double> &Values) const;

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  /// The final JSON line: correct, attempted, failed, metrics.
  std::string json() const;

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
};

/// In-memory span recorder. Disabled tracers make span() an inert scope,
/// so the untraced runs execute the same code paths without recording.
class Tracer {
public:
  explicit Tracer(bool Enabled);
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }

  /// Closes its span on destruction. Returned by value only as a prvalue.
  class Scope {
  public:
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope();

  private:
    friend class Tracer;
    Scope(Tracer *T, size_t Id) : T(T), Id(Id) {}
    Tracer *T;
    size_t Id;
  };

  /// Opens a span named \p Name ("<layer>.<call>") for request \p Request;
  /// its parent is the innermost span still open on this thread.
  Scope span(std::string_view Name, uint64_t Request = 0);

  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the time its child spans cover.
  std::map<std::string, double> selfMsByLayer() const;
  /// Writes spans and counter samples as Chrome trace-event JSON.
  bool writeChromeJson(const std::string &Path) const;

private:
  struct Span {
    std::string Name;
    uint64_t BeginNs = 0;
    uint64_t EndNs = 0;
    long Parent = -1;
    uint64_t Request = 0;
    unsigned Lane = 0;
  };
  struct CounterSample {
    uint64_t AtNs = 0;
    ReportCounters Values;
  };
  void close(size_t Id);
  /// Records the run-report counters (encode-cache hits/misses, uarch.runs,
  /// peep.fire.* total, tuner score-cache hits) as one counter event.
  void sampleCounters();
  uint64_t nowNs() const;
  unsigned laneOfThisThread();

  const bool Enabled;
  const Clock::time_point Start;
  mutable std::mutex M; ///< Guards every member below.
  std::vector<Span> Spans;
  std::vector<CounterSample> Counters;
  std::map<std::thread::id, unsigned> Lanes; ///< Recording thread -> lane.
};

/// Runs \p Fn inside a span named \p Name and returns its wall time in ms.
template <typename F>
double timedMs(Tracer &T, std::string_view Name, uint64_t Request, F &&Fn) {
  Tracer::Scope S = T.span(Name, Request);
  const Clock::time_point Start = Clock::now();
  Fn();
  return secondsSince(Start) * 1e3;
}

/// Calls \p Fn repeatedly until \p Seconds have passed (at least once) and
/// returns the elapsed seconds.
template <typename F> double runFor(double Seconds, F &&Fn) {
  const Clock::time_point Start = Clock::now();
  const Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  do
    Fn();
  while (Clock::now() < Deadline);
  return secondsSince(Start);
}

/// Builds a workload's set-up \p O.setUps() times with \p Make(Index),
/// appends the wall time of each build to \p Seconds and returns the last.
/// The previous set-up is torn down after the next one is timed, so
/// teardown never counts in set-up time.
template <typename F>
auto timedSetUps(const Options &O, std::vector<double> &Seconds, F &&Make) {
  auto Timed = [&](int Index) {
    const Clock::time_point Start = Clock::now();
    auto U = Make(Index);
    Seconds.push_back(secondsSince(Start));
    return U;
  };
  auto U = Timed(0);
  for (int I = 1; I < O.setUps(); ++I) {
    auto Next = Timed(I);
    { auto Old = std::move(U); } // Torn down in reverse member order.
    U = std::move(Next);
  }
  return U;
}

/// The samples behind the end-to-end metrics of an untraced run.
struct EndToEnd {
  std::vector<double> SetupSeconds;
  std::vector<double> PassSeconds;    ///< Wall time of each pass.
  std::vector<double> PassCpuSeconds; ///< User+sys CPU of each pass.
  std::vector<double> RequestMs;      ///< Latency of each request.
  double LoopSeconds = 0; ///< The measured interval, checks included.
  double OutBytes = 0;
  double Speedup = 0;
  /// Prints the sample series and sets every end-to-end metric.
  void report(Result &R) const;
};

/// Sets encode.lookups, encode.hit_ratio and encode.entries from \p C.
void reportEncode(Result &R, const ReportCounters &C);

/// Parses a tiny program, so that building the opcode and register tables
/// counts in set-up rather than in the first timed pass.
void warmUp(mao::api::Session &S);

/// Session::measure calls of bench_main on the core2 model, tallied for
/// the uarch metrics.
struct UarchTally {
  unsigned Calls = 0;
  double Ms = 0;
  double Cycles = 0;
  /// Emits uarch.runs (the registry's count, which includes the tuner's
  /// own simulations), uarch.measure_ms and uarch.sim_cycles_per_s.
  void report(Result &R) const;
};
mao::api::Status measureCycles(mao::api::Session &S, mao::api::Program &P,
                               Tracer &T, UarchTally &Tally,
                               uint64_t &Cycles);

/// What checkProgram learned about one emitted program.
struct ProgramFacts {
  double Bytes = 0;        ///< Assembled section bytes of the output.
  uint64_t BaseCycles = 0; ///< bench_main cycles of the input (core2).
  uint64_t OutCycles = 0;  ///< bench_main cycles of the output (core2).
  bool Ok = false;         ///< Every check passed.
  double speedup() const { return double(BaseCycles) / double(OutCycles); }
};

/// Checks one emitted program \p Output against its \p Input, counting
/// every check in \p R: the output re-parses, passes Session::verify, and
/// assembles; with \p Equivalence it also passes
/// Session::validateEquivalence against the input. bench_main of both is
/// simulated on core2 and tallied in \p Tally.
ProgramFacts checkProgram(mao::api::Session &S, const std::string &Name,
                          const std::string &Input, const std::string &Output,
                          bool Equivalence, Result &R, Tracer &T,
                          UarchTally &Tally);

/// Workload entry points; each fills \p R for --trace 0 or --trace 1.
void runCorpus(const Options &O, Result &R, Tracer &T);
void runSpecTune(const Options &O, Result &R, Tracer &T);
void runServeMix(const Options &O, Result &R, Tracer &T);

/// Flips one byte of \p Text (the last digit of the first immediate, so
/// the change is a semantic one that must not parse back to the same
/// program). Used by --corrupt.
void flipOneByte(std::string &Text);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
