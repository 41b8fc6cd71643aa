//===- perfbench/src/ServeMix.cpp - serve_mix -----------------------------===//
///
/// \file
/// An in-process maod (serve::Server on a unix socket, a fresh artifact
/// cache directory, EngineOptions::MaxJobs=1) driven by a closed loop of
/// one client that waits for each reply before sending the next request,
/// as a build step calling `mao --connect` does. Every request is one
/// serve::clientRun call (one connection).
///
/// One client, not several: every connection's Engine re-opens the cache,
/// and ArtifactCache::open's stale-temp sweep deletes the temp files of
/// stores other connections still have in flight. With two clients one
/// store in ten to one in six failed that way and the key missed again
/// later, so the hit ratio, and with it every timing, varied from run to
/// run.
///
/// One pass sends every source once as a miss (compute and fsync'd store)
/// and every other source once more as a hit (lookup and checksum read),
/// so one request in three repeats an earlier key. This mix is an
/// assumption, not a measurement: no recorded maod request trace exists
/// to take a hit ratio from. Misses are the majority by design, so
/// req_p50_ms is a miss latency and compute, which is steady, outweighs
/// the syscalls and fsyncs, which move with the host's load; hit latency
/// is the per-layer serve.hit_ms. The sources are the four largest SPEC
/// profiles below 150 KB, for the same reason. Every pass starts from a
/// freshly started daemon over an empty cache directory (restarted between
/// passes, outside the timed interval), so all passes do the same work.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "mao/Mao.h"
#include "serve/ArtifactCache.h"
#include "serve/Serve.h"
#include "workload/Workload.h"

#include <filesystem>
#include <iterator>
#include <memory>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace mao;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

const char *const Pool[] = {"186.crafty", "252.eon", "300.twolf",
                            "255.vortex"};
const char *const Pipeline = "zee,redtest,redmov,addadd,sched";

struct Source {
  std::string Name;
  std::string Text;
};

/// A directory removed with everything in it when the owner goes away.
class ScratchDir {
public:
  explicit ScratchDir(std::string P) : Path(std::move(P)) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  const std::string Path;
};

bool canConnect(const std::string &Socket) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Socket.size() >= sizeof(Addr.sun_path))
    return false;
  Socket.copy(Addr.sun_path, Socket.size());
  const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  const bool Ok =
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0;
  ::close(Fd);
  return Ok;
}

/// maod in a thread of this process, stopped and joined on destruction.
class Daemon {
public:
  Daemon(const std::string &Socket, const std::string &CacheDir)
      // A daemon that cannot bind shows up as failed requests.
      : Srv(options(Socket, CacheDir)), Thread([this] { (void)Srv.run(); }) {
    for (int I = 0; I < 5000 && !canConnect(Socket); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ~Daemon() {
    Srv.requestStop();
    Thread.join();
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

private:
  static serve::ServerOptions options(const std::string &Socket,
                                      const std::string &CacheDir) {
    serve::ServerOptions O;
    O.SocketPath = Socket;
    O.Engine.CacheDir = CacheDir;
    O.Engine.MaxJobs = 1;
    return O;
  }

  serve::Server Srv;
  std::thread Thread; ///< Declared after Srv, which it runs.
};

struct Setup {
  std::vector<Source> Sources;
  std::unique_ptr<api::Session> Checker; ///< Facade session for the checks.
  std::unique_ptr<ScratchDir> Dir;       ///< Cache and socket; outlives D.
  std::string Socket;
  std::unique_ptr<Daemon> D;
};

Setup setUp(const Options &O, unsigned Index) {
  Setup U;
  const unsigned Keys = O.Quick ? 4 : 24;
  for (unsigned I = 0; I < Keys; ++I) {
    WorkloadSpec Spec = *findBenchmarkProfile(Pool[I % std::size(Pool)]);
    Spec.Seed = mixSeed(O.Seed, I + 1);
    U.Sources.push_back(
        {Spec.Name + "#" + std::to_string(I), generateWorkloadAssembly(Spec)});
  }
  U.Checker = std::make_unique<api::Session>();
  U.Dir = std::make_unique<ScratchDir>(O.WorkDir + "/serve-" +
                                       std::to_string(::getpid()) + "-" +
                                       std::to_string(Index));
  U.Socket = U.Dir->Path + "/maod.sock";
  U.D = std::make_unique<Daemon>(U.Socket, U.Dir->Path + "/cache");
  return U;
}

/// Stops the daemon and starts a new one over an empty cache directory.
void restartDaemon(Setup &U) {
  U.D.reset();
  const std::string Cache = U.Dir->Path + "/cache";
  fs::remove_all(Cache);
  U.D = std::make_unique<Daemon>(U.Socket, Cache);
}

serve::ServeRequest request(const Source &S) {
  serve::ServeRequest Req;
  Req.Name = S.Name + ".s";
  Req.Source = S.Text;
  Req.Pipeline = Pipeline;
  Req.OnError = "abort";
  Req.Jobs = 1;
  return Req;
}

/// The order a pass sends its keys in: every key once as a miss, and each
/// even-numbered key again right after the next key, as a hit. One
/// request in three repeats a key (the assumed mix, see the file comment),
/// and every repeat follows the reply that stored it.
std::vector<size_t> schedule(size_t Keys) {
  std::vector<size_t> Order;
  for (size_t K = 0; K < Keys; ++K) {
    Order.push_back(K);
    if (K % 2 == 1)
      Order.push_back(K - 1);
  }
  if (Keys % 2 == 1)
    Order.push_back(Keys - 1);
  return Order;
}

struct Sample {
  double Ms = 0;
  bool Hit = false;
  bool Degraded = false;
  /// An Ok reply whose artifact could not be stored (the diagnostic says
  /// why); the next request for its key is then a miss again.
  bool StoreFailed = false;
  std::string Error; ///< Empty when the reply was correct.
};

/// Sends one request through \p Send and checks the reply against the first
/// reply for the same key in this pass (\p First, owned by this client).
template <typename SendFn>
Sample sendOne(SendFn &&Send, const serve::ServeRequest &Req,
               const std::string &Key, std::string &First) {
  Sample S;
  serve::ServeResponse Resp;
  const Clock::time_point Start = Clock::now();
  MaoStatus St = Send(Req, Resp);
  S.Ms = secondsSince(Start) * 1e3;
  S.Hit = Resp.CacheHit;
  S.Degraded = St.ok() && Resp.Status == serve::ServeStatus::DegradedIdentity;
  S.StoreFailed = St.ok() && Resp.Status == serve::ServeStatus::Ok &&
                  !Resp.Diagnostic.empty();
  if (!St.ok())
    S.Error = Key + ": transport: " + St.message();
  else if (Resp.Status != serve::ServeStatus::Ok)
    S.Error = Key + ": status " + std::to_string(int(Resp.Status)) + ": " +
              Resp.Diagnostic;
  else if (First.empty())
    First = std::move(Resp.Output);
  else if (Resp.Output != First)
    S.Error = Key + ": repeated request returned different bytes";
  return S;
}

/// One pass through the daemon with the closed-loop client. Fills \p Out
/// with each key's reply and appends every request's sample.
double servePass(Setup &U, unsigned PassNo, Tracer &T,
                 std::vector<std::string> &Out, std::vector<Sample> &Samples) {
  const size_t Keys = U.Sources.size();
  Out.assign(Keys, std::string());
  serve::ClientOptions CO;
  CO.SocketPath = U.Socket;
  CO.Attempts = 1; // A retry would hide a failed request.
  uint64_t Req = uint64_t(PassNo) * 1000;
  auto Send = [&](const serve::ServeRequest &R, serve::ServeResponse &Resp) {
    Tracer::Scope S = T.span("serve.clientRun", ++Req);
    return serve::clientRun(CO, R, Resp);
  };
  const Clock::time_point Start = Clock::now();
  for (size_t K : schedule(Keys))
    Samples.push_back(
        sendOne(Send, request(U.Sources[K]), U.Sources[K].Name, Out[K]));
  return secondsSince(Start);
}

/// Counts every sample as an operation and checks the pass's replies
/// against the first pass's.
void checkPass(const Setup &U, const std::vector<Sample> &Samples,
               const std::vector<std::string> &Out,
               const std::vector<std::string> &Ref, Result &R) {
  for (const Sample &S : Samples)
    R.check(S.Error.empty(), S.Error);
  for (size_t K = 0; K < Out.size(); ++K)
    R.check(Out[K] == Ref[K],
            U.Sources[K].Name + ": reply differs from the first pass");
}

struct OutputFacts {
  double Bytes = 0;
  std::vector<double> Speedups;
  UarchTally Uarch;
};

/// checkProgram on every distinct reply.
OutputFacts checkOutputs(Setup &U, const std::vector<std::string> &Ref,
                         Result &R, Tracer &T) {
  OutputFacts F;
  for (size_t K = 0; K < Ref.size(); ++K) {
    const ProgramFacts PF =
        checkProgram(*U.Checker, U.Sources[K].Name, U.Sources[K].Text, Ref[K],
                     /*Equivalence=*/false, R, T, F.Uarch);
    F.Bytes += PF.Bytes;
    if (PF.Ok)
      F.Speedups.push_back(PF.speedup());
  }
  return F;
}

void reportInputs(const Result &R, const Setup &U, const Options &O) {
  std::string Line = "input serve_mix: seed " + std::to_string(O.Seed) +
                     ", pipeline " + Pipeline +
                     ", 1 closed-loop client, maod MaxJobs=1, sources:";
  for (const Source &S : U.Sources) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), " %s(%zu bytes, fnv1a %016llx)",
                  S.Name.c_str(), S.Text.size(),
                  (unsigned long long)serve::fnv1a64(S.Text));
    Line += Buf;
  }
  R.note(Line);
}

/// The per-layer walk of the traced run: the same pass schedule straight
/// into one Engine (no socket), then each source through cacheRun without
/// a cache (pure compute) and its artifact through ArtifactCache::store.
/// Returns how many replies were DegradedIdentity.
unsigned layerWalk(Setup &U, const Options &O,
                   const std::vector<std::string> &Ref, Result &R, Tracer &T) {
  const size_t Keys = U.Sources.size();
  ScratchDir Dir(O.WorkDir + "/serve-walk-" + std::to_string(::getpid()));
  std::vector<double> HitMs, MissMs;
  unsigned Degraded = 0;
  {
    serve::EngineOptions EO;
    EO.CacheDir = Dir.Path + "/engine";
    EO.MaxJobs = 1;
    serve::Engine E(EO);
    std::vector<std::string> First(Keys);
    uint64_t Req = 900000;
    for (size_t K : schedule(Keys)) {
      auto Send = [&](const serve::ServeRequest &Rq, serve::ServeResponse &Rs) {
        Tracer::Scope S = T.span("serve.handle", ++Req);
        Rs = E.handle(Rq);
        return MaoStatus::success();
      };
      const Sample S =
          sendOne(Send, request(U.Sources[K]), U.Sources[K].Name, First[K]);
      R.check(S.Error.empty(), S.Error);
      (S.Hit ? HitMs : MissMs).push_back(S.Ms);
      Degraded += S.Degraded;
    }
    for (size_t K = 0; K < Keys; ++K)
      R.check(First[K] == Ref[K], U.Sources[K].Name +
                                      ": engine reply differs from daemon's");
  }

  std::vector<double> ComputeMs, StoreMs;
  api::Session Plain;
  serve::ArtifactCache Cache;
  R.check(!Cache.open(Dir.Path + "/store"), "cannot open artifact cache");
  for (size_t K = 0; K < Keys; ++K) {
    api::CachedRunRequest Req;
    Req.Source = U.Sources[K].Text;
    Req.Name = U.Sources[K].Name + ".s";
    (void)api::Session::parsePipelineSpec(Pipeline, Req.Pipeline);
    Req.Options.Jobs = 1;
    api::CachedRunResult Run;
    api::Status St;
    ComputeMs.push_back(timedMs(T, "serve.cacheRun", K,
                                [&] { St = Plain.cacheRun(Req, Run); }));
    if (!R.check(St.Ok && Run.Output == Ref[K],
                 U.Sources[K].Name + ": uncached compute differs"))
      continue;
    serve::CacheEntry Entry;
    Entry.set("output", Run.Output);
    Entry.set("report", Run.ReportJson);
    MaoStatus Stored;
    StoreMs.push_back(timedMs(T, "serve.store", K, [&] {
      Stored = Cache.store(api::Session::cacheKey(Req), Entry);
    }));
    R.check(Stored.ok(), "ArtifactCache::store failed: " + Stored.message());
  }

  R.metric("serve.hit_ratio",
           double(HitMs.size()) / (HitMs.size() + MissMs.size()), "ratio");
  R.metric("serve.hit_ms", median(HitMs), "ms");
  R.metric("serve.miss_ms", median(MissMs), "ms");
  R.metric("serve.compute_ms", median(ComputeMs), "ms");
  R.metric("serve.store_ms", median(StoreMs), "ms");
  return Degraded;
}

} // namespace

void runServeMix(const Options &O, Result &R, Tracer &T) {
  Tracer Off(false);
  EndToEnd E;
  Setup U = timedSetUps(O, E.SetupSeconds,
                        [&](int Index) { return setUp(O, Index); });
  reportInputs(R, U, O);

  std::vector<std::string> Ref, Out;
  std::vector<Sample> Samples;
  unsigned PassNo = 0;
  auto OnePass = [&](Tracer &With) {
    if (PassNo > 0)
      restartDaemon(U);
    std::vector<Sample> PassSamples;
    const double Cpu0 = cpuSeconds();
    E.PassSeconds.push_back(servePass(U, PassNo++, With, Out, PassSamples));
    E.PassCpuSeconds.push_back(cpuSeconds() - Cpu0);
    if (Ref.empty())
      Ref = Out;
    checkPass(U, PassSamples, Out, Ref, R);
    Samples.insert(Samples.end(), PassSamples.begin(), PassSamples.end());
  };
  size_t Hits = 0, Degraded = 0, StoreFailed = 0;
  auto CountSamples = [&] {
    for (const Sample &S : Samples) {
      E.RequestMs.push_back(S.Ms);
      Hits += S.Hit;
      Degraded += S.Degraded;
      StoreFailed += S.StoreFailed;
    }
  };

  if (O.Trace) {
    const int Reps = O.Quick ? 1 : 5;
    for (int I = 0; I < Reps; ++I)
      OnePass(Off);
    const double Plain = median(E.PassSeconds);
    E.PassSeconds.clear();
    api::Session::resetGlobalStats();
    for (int I = 0; I < Reps; ++I)
      OnePass(T);
    const ReportCounters Counts = readReportCounters();
    CountSamples();
    R.metric("serve.store_failures", StoreFailed, "count");
    if (O.Corrupt)
      flipOneByte(Ref[0]);
    Degraded += layerWalk(U, O, Ref, R, T);
    R.metric("serve.degraded", Degraded, "count");
    const OutputFacts F = checkOutputs(U, Ref, R, T);
    reportEncode(R, Counts);
    F.Uarch.report(R);
    R.metric("trace.overhead_ratio", median(E.PassSeconds) / Plain, "ratio");
    return;
  }

  E.LoopSeconds = runFor(O.Seconds, [&] { OnePass(Off); });
  if (O.Corrupt)
    flipOneByte(Out[0]); // The last pass's reply must still match the first.
  checkPass(U, {}, Out, Ref, R);
  const OutputFacts F = checkOutputs(U, Ref, R, Off);
  CountSamples();
  E.OutBytes = F.Bytes;
  E.Speedup = geomean(F.Speedups);
  E.report(R);
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "serve: %zu hits, %zu degraded replies, %zu artifacts not "
                "stored (their next request missed again)",
                Hits, Degraded, StoreFailed);
  R.note(Line);
}

} // namespace perfbench
