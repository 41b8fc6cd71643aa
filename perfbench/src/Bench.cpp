//===- perfbench/src/Bench.cpp - End-to-end benchmark plumbing ------------===//

#include "Bench.h"

#include "support/Stats.h"
#include "x86/EncodeCache.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  // splitmix64 finalizer over (seed, stream): distinct streams of one seed
  // and one stream of distinct seeds never collide in practice.
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Stream + 1;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Values.size()));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / Values.size());
}

unsigned supportedPercentile(size_t Samples) {
  for (unsigned P = 99; P >= 50; --P)
    if (Samples * (100 - P) >= 1000)
      return P;
  return 0;
}

void flipOneByte(std::string &Text) {
  size_t Pos = Text.find('$');
  while (Pos != std::string::npos &&
         !(Pos + 1 < Text.size() && std::isdigit((unsigned char)Text[Pos + 1])))
    Pos = Text.find('$', Pos + 1);
  if (Pos == std::string::npos) {
    if (!Text.empty())
      Text[Text.size() / 2] ^= 1;
    return;
  }
  size_t Last = Pos + 1;
  while (Last + 1 < Text.size() && std::isdigit((unsigned char)Text[Last + 1]))
    ++Last;
  Text[Last] ^= 1; // '0'<->'1', '2'<->'3', ...: still a number, another value.
}

ReportCounters readReportCounters() {
  ReportCounters C;
  const mao::EncodeCache::Stats E = mao::EncodeCache::instance().stats();
  C.EncodeHits = E.Hits;
  C.EncodeMisses = E.Misses;
  C.EncodeEntries = E.Entries;
  for (const auto &[Name, V] :
       mao::StatsRegistry::instance().snapshot().Counters) {
    if (Name == "uarch.runs")
      C.UarchRuns = V;
    else if (Name == "tune.cache_served")
      C.ScoreCacheHits = V;
    else if (Name.rfind("peep.fire.", 0) == 0)
      C.PeepFires += V;
  }
  return C;
}

void EndToEnd::report(Result &R) const {
  // Requests per second of pass time, the interval wall_s measures: the
  // checks and daemon restarts between passes stay out of it.
  double PassTotal = 0;
  for (double S : PassSeconds)
    PassTotal += S;
  R.noteSeries("set-up s", SetupSeconds);
  R.noteSeries("pass wall s", PassSeconds);
  char Line[200];
  std::snprintf(Line, sizeof(Line),
                "samples: %zu requests in %zu passes (%.1f s of %.1f s "
                "measured); highest percentile with >= 10 samples above "
                "it: p%u (0: none; req_p99_ms is nearest-rank)",
                RequestMs.size(), PassSeconds.size(), PassTotal, LoopSeconds,
                supportedPercentile(RequestMs.size()));
  R.note(Line);
  R.metric("setup_s", median(SetupSeconds), "s");
  R.metric("wall_s", median(PassSeconds), "s");
  R.metric("cpu_s", median(PassCpuSeconds), "s");
  R.metric("peak_rss_mb", peakRssMb(), "MiB");
  R.metric("out_bytes", OutBytes, "bytes");
  R.metric("code_speedup_geo", Speedup, "ratio");
  R.metric("req_per_s", RequestMs.size() / PassTotal, "1/s");
  R.metric("req_p50_ms", median(RequestMs), "ms");
  R.metric("req_p99_ms", percentile(RequestMs, 99), "ms");
}

void reportEncode(Result &R, const ReportCounters &C) {
  const uint64_t Lookups = C.EncodeHits + C.EncodeMisses;
  R.metric("encode.lookups", Lookups, "count");
  R.metric("encode.hit_ratio", Lookups ? double(C.EncodeHits) / Lookups : 0,
           "ratio");
  R.metric("encode.entries", C.EncodeEntries, "count");
}

void warmUp(mao::api::Session &S) {
  mao::api::Program Warm;
  (void)S.parseText("\t.text\nf:\n\tmovl $1, %eax\n\tret\n", "warm.s", Warm);
}

void UarchTally::report(Result &R) const {
  R.metric("uarch.runs", readReportCounters().UarchRuns, "count");
  R.metric("uarch.measure_ms", Calls ? Ms / Calls : 0, "ms");
  R.metric("uarch.sim_cycles_per_s", Ms > 0 ? Cycles / (Ms / 1e3) : 0, "1/s");
}

mao::api::Status measureCycles(mao::api::Session &S, mao::api::Program &P,
                               Tracer &T, UarchTally &Tally,
                               uint64_t &Cycles) {
  mao::api::MeasureSummary M;
  mao::api::Status St;
  Tally.Ms += timedMs(T, "uarch.measure", 0, [&] {
    St = S.measure(P, mao::api::MeasureRequest(), M);
  });
  ++Tally.Calls;
  Tally.Cycles += M.Cycles;
  Cycles = M.Cycles;
  if (St.Ok && M.Cycles == 0)
    St = mao::api::Status::error("bench_main ran for zero cycles");
  return St;
}

ProgramFacts checkProgram(mao::api::Session &S, const std::string &Name,
                          const std::string &Input, const std::string &Output,
                          bool Equivalence, Result &R, Tracer &T,
                          UarchTally &Tally) {
  ProgramFacts F;
  mao::api::Program Before, After;
  if (!R.check(S.parseText(Input, Name + ".s", Before).Ok,
               Name + ": input does not parse") ||
      !R.check(S.parseText(Output, Name + ".out.s", After).Ok,
               Name + ": output does not re-parse"))
    return F;
  mao::api::Status Verified;
  timedMs(T, "ir.verify", 0, [&] { Verified = S.verify(After); });
  F.Ok = R.check(Verified.Ok,
                 Name + ": output fails verify: " + Verified.Message);
  if (Equivalence) {
    mao::api::Status Eq;
    timedMs(T, "check.validateEquivalence", 0,
            [&] { Eq = S.validateEquivalence(Before, After); });
    F.Ok &= R.check(Eq.Ok, Name + ": output is not equivalent to its "
                                  "input: " + Eq.Message);
  }
  mao::api::AssembledBytes Bytes;
  const bool Assembled = R.check(S.assemble(After, Bytes).Ok,
                                 Name + ": output does not assemble");
  F.Ok &= Assembled;
  if (Assembled)
    for (const auto &[Section, Data] : Bytes)
      F.Bytes += Data.size();
  const mao::api::Status MB = measureCycles(S, Before, T, Tally, F.BaseCycles);
  const mao::api::Status MA = measureCycles(S, After, T, Tally, F.OutCycles);
  F.Ok &= R.check(MB.Ok && MA.Ok, Name + ": bench_main does not simulate: " +
                                      MB.Message + MA.Message);
  return F;
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

bool Result::check(bool Ok, const std::string &Why) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", Why.c_str());
  }
  return Ok;
}

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back({Name, Value, Unit});
}

void Result::note(const std::string &Line) const {
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

void Result::noteSeries(const std::string &Label,
                        const std::vector<double> &Values) const {
  std::string Line = Label + " (n=" + std::to_string(Values.size()) + "):";
  char Buf[32];
  for (double V : Values) {
    std::snprintf(Buf, sizeof(Buf), " %.4g", V);
    Line += Buf;
  }
  note(Line);
}

namespace {

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : std::string("0");
}

std::string escaped(std::string_view Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if ((unsigned char)C < 0x20)
      C = ' ';
    Out += C;
  }
  return Out;
}

} // namespace

std::string Result::json() const {
  std::string Out = "{\"correct\": ";
  Out += Failed == 0 && Attempted > 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    Out += I ? ", \"" : "\"";
    Out += escaped(Metrics[I].Name);
    Out += "\": {\"value\": ";
    Out += number(Metrics[I].Value);
    Out += ", \"unit\": \"";
    Out += escaped(Metrics[I].Unit);
    Out += "\"}";
  }
  Out += "}}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<size_t> OpenSpans;
} // namespace

Tracer::Tracer(bool Enabled) : Enabled(Enabled), Start(Clock::now()) {}

Tracer::Scope::~Scope() {
  if (T)
    T->close(Id);
}

uint64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Start)
      .count();
}

unsigned Tracer::laneOfThisThread() {
  auto [It, Inserted] = Lanes.emplace(std::this_thread::get_id(),
                                      static_cast<unsigned>(Lanes.size()));
  return It->second;
}

Tracer::Scope Tracer::span(std::string_view Name, uint64_t Request) {
  if (!Enabled)
    return Scope(nullptr, 0);
  Span S;
  S.Name = std::string(Name);
  S.Request = Request;
  S.Parent = OpenSpans.empty() ? -1 : static_cast<long>(OpenSpans.back());
  size_t Id;
  {
    std::lock_guard<std::mutex> Lock(M);
    S.Lane = laneOfThisThread();
    S.BeginNs = nowNs();
    Id = Spans.size();
    Spans.push_back(std::move(S));
  }
  OpenSpans.push_back(Id);
  return Scope(this, Id);
}

void Tracer::close(size_t Id) {
  {
    std::lock_guard<std::mutex> Lock(M);
    Spans[Id].EndNs = nowNs();
  }
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  sampleCounters();
}

void Tracer::sampleCounters() {
  if (!Enabled)
    return;
  CounterSample C;
  C.Values = readReportCounters();
  std::lock_guard<std::mutex> Lock(M);
  C.AtNs = nowNs();
  Counters.push_back(C);
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<double> ChildNs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.BeginNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    const std::string Layer = S.Name.substr(0, S.Name.find('.'));
    Self[Layer] += std::max(0.0, (S.EndNs - S.BeginNs) - ChildNs[I]) / 1e6;
  }
  return Self;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(M);
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"perfbench\"}}";
  for (const auto &[Thread, Lane] : Lanes)
    Out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(Lane) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
           (Lane == 0 ? std::string("main")
                      : "client-" + std::to_string(Lane)) +
           "\"}}";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out += ",\n{\"name\":\"" + escaped(S.Name) + "\",\"cat\":\"" +
           escaped(S.Name.substr(0, S.Name.find('.'))) +
           "\",\"ph\":\"X\",\"ts\":" + number(S.BeginNs / 1e3) +
           ",\"dur\":" + number((S.EndNs - S.BeginNs) / 1e3) +
           ",\"pid\":1,\"tid\":" + std::to_string(S.Lane) +
           ",\"args\":{\"id\":" + std::to_string(I) +
           ",\"parent\":" + std::to_string(S.Parent) +
           ",\"request\":" + std::to_string(S.Request) + "}}";
  }
  for (const CounterSample &C : Counters) {
    Out += ",\n{\"name\":\"counters\",\"ph\":\"C\",\"ts\":" +
           number(C.AtNs / 1e3) + ",\"pid\":1,\"tid\":0,\"args\":{";
    const ReportCounters &V = C.Values;
    Out += "\"encode.hits\":" + std::to_string(V.EncodeHits) +
           ",\"encode.misses\":" + std::to_string(V.EncodeMisses) +
           ",\"uarch.runs\":" + std::to_string(V.UarchRuns) +
           ",\"peep.fires\":" + std::to_string(V.PeepFires) +
           ",\"tune.score_cache_hits\":" + std::to_string(V.ScoreCacheHits) +
           "}}";
  }
  Out += "\n]}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return std::fclose(F) == 0 && Ok;
}

} // namespace perfbench
