// perfbench_replay — the end-to-end benchmark of olapdcd.
//
//   perfbench_replay --daemon PATH --workload NAME --seed N --seconds S
//                    --trace 0|1 [--trace-out FILE]
//
// Generates the workload's request sequence from the seed (workloads.h),
// answers every distinct question with the in-process oracle, then
// replays the sequence for as many rounds as fit in S seconds. Every
// round spawns a fresh olapdcd with pinned serving flags, registers the
// workload's schemas, runs the untimed warm-up, replays the timed
// sequence in a closed loop over the workload's connections, and drains
// the daemon with SIGTERM. Each request position is scored by its best
// latency over the rounds, because this host has slow phases that last
// whole seconds: a position's minimum is the cost of the work itself,
// its mean is mostly the host. The last stdout line is the result JSON.
//
// --trace 1 is the layer run: untraced rounds (the overhead baseline)
// alternate with traced ones, which record a span around each socket
// round trip and then replay the same sequence in-process, against an
// identically configured DimService and through each layer's public
// entry points, with spans around the calls.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "constraint/normalize.h"
#include "constraint/parser.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/summarizability.h"
#include "exec/admission.h"
#include "io/json_parse.h"
#include "io/schema_io.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/dim_service.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"
#include "tools/http_client.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Keeps results of otherwise unused computations alive.
volatile uint64_t g_sink = 0;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Serving configuration, pinned for every round. The deadline is generous
// so no answer degrades to "definitive": false; --threads 1 keeps DIMSAT
// sequential, leaving cores for the client and the transport.

constexpr int64_t kDeadlineMs = 60000;
constexpr int64_t kAdmissionHighWater = 16;
constexpr int64_t kMaxConnections = 4;
constexpr int64_t kMemoryBudgetMb = 64;

std::vector<std::string> DaemonArgs(const std::string& binary,
                                    const Workload& w) {
  return {binary,
          "--port", "0",
          "--threads", "1",
          "--max-connections", std::to_string(kMaxConnections),
          "--admission-high-water", std::to_string(kAdmissionHighWater),
          "--request-deadline-ms", std::to_string(kDeadlineMs),
          "--max-deadline-ms", std::to_string(kDeadlineMs),
          "--read-timeout-ms", std::to_string(kDeadlineMs),
          "--memory-budget-mb", std::to_string(kMemoryBudgetMb),
          "--drain-timeout-ms", "10000",
          "--cache-budget-mb", std::to_string(w.cache_budget_mb)};
}

// ---------------------------------------------------------------------------
// Host-speed sentinel: a fixed integer kernel that touches no project
// code. Its time tracks the host's speed phase; it is printed next to
// the metrics as a diagnostic and is not itself a metric.

double SentinelMs() {
  const auto start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t acc = 0;
  for (int i = 0; i < (1 << 22); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  g_sink = acc;
  return SecondsSince(start) * 1e3;
}

// ---------------------------------------------------------------------------
// One olapdcd child process.

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    CloseFds();
  }

  /// Forks and execs `args`, on `cpus` when not null; returns once the
  /// daemon prints its listening line (false on any failure, with
  /// `error` set).
  bool Start(const std::vector<std::string>& args, const cpu_set_t* cpus,
             std::string* error) {
    int out[2], err[2];
    if (::pipe2(out, O_CLOEXEC) != 0) return Fail("pipe", error);
    if (::pipe2(err, O_CLOEXEC) != 0) {
      ::close(out[0]);
      ::close(out[1]);
      return Fail("pipe", error);
    }
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    out_fd_ = out[0];
    err_fd_ = err[0];
    pid_ = ::fork();
    if (pid_ == 0) {
      if (cpus != nullptr) ::sched_setaffinity(0, sizeof(*cpus), cpus);
      ::dup2(out[1], STDOUT_FILENO);
      ::dup2(err[1], STDERR_FILENO);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    const int fork_errno = errno;
    ::close(out[1]);
    ::close(err[1]);
    if (pid_ < 0) {
      errno = fork_errno;
      return Fail("fork", error);
    }
    std::string line;
    while (ReadLine(out_fd_, &stdout_text_, &line, 30000)) {
      if (std::sscanf(line.c_str(), "olapdcd listening on port %d", &port_) == 1) {
        return true;
      }
    }
    *error = "olapdcd did not report a listening port";
    return false;
  }

  int port() const { return port_; }

  struct Exit {
    int code = -1;
    double max_rss_mb = 0;
    std::string stderr_text;
  };

  /// SIGTERM, collect stderr to EOF, reap with wait4.
  Exit Stop() {
    Exit e;
    if (pid_ <= 0) return e;
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int fds[2] = {err_fd_, out_fd_};
    std::string* sinks[2] = {&e.stderr_text, &stdout_text_};
    for (int k = 0; k < 2; ++k) {
      char buf[4096];
      while (SecondsSince(start) < 30) {
        pollfd p{fds[k], POLLIN, 0};
        if (::poll(&p, 1, 1000) <= 0) continue;
        const ssize_t n = ::read(fds[k], buf, sizeof(buf));
        if (n <= 0) break;
        sinks[k]->append(buf, static_cast<size_t>(n));
      }
    }
    if (SecondsSince(start) >= 30) ::kill(pid_, SIGKILL);
    int status = 0;
    rusage usage{};
    if (::wait4(pid_, &status, 0, &usage) == pid_) {
      e.code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      e.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    pid_ = -1;
    CloseFds();
    return e;
  }

 private:
  static bool Fail(const char* what, std::string* error) {
    *error = std::string(what) + ": " + std::strerror(errno);
    return false;
  }

  static bool ReadLine(int fd, std::string* buffer, std::string* line,
                       int timeout_ms) {
    const auto start = Clock::now();
    for (;;) {
      const size_t nl = buffer->find('\n');
      if (nl != std::string::npos) {
        *line = buffer->substr(0, nl);
        buffer->erase(0, nl + 1);
        return true;
      }
      const int left = timeout_ms - static_cast<int>(SecondsSince(start) * 1e3);
      pollfd p{fd, POLLIN, 0};
      if (left <= 0 || ::poll(&p, 1, left) <= 0) return false;
      char buf[512];
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) return false;
      buffer->append(buf, static_cast<size_t>(n));
    }
  }

  void CloseFds() {
    if (out_fd_ >= 0) ::close(out_fd_);
    if (err_fd_ >= 0) ::close(err_fd_);
    out_fd_ = err_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
  std::string stdout_text_;
};

// ---------------------------------------------------------------------------
// Answer checking.

enum class CacheLayer { kNone, kResponse, kClosure };

struct Verdict {
  bool ok = false;
  CacheLayer layer = CacheLayer::kNone;
};

const char* VerdictField(Op op) {
  switch (op) {
    case Op::kCheck:
      return "satisfiable";
    case Op::kImplies:
      return "implied";
    case Op::kSummarizable:
      return "summarizable";
    case Op::kRegister:
      break;
  }
  return "name";
}

/// A response is correct when it is a 200 whose body is a definitive
/// answer equal to the oracle's (reads) or names the schema (writes).
Verdict CheckResponse(const Workload& w, const Request& r, int status,
                      const std::string& body) {
  Verdict v;
  if (status != 200) return v;
  olapdc::JsonValue json;
  if (!olapdc::ParseJsonText(body, &json) || !json.is_object()) return v;
  if (r.op == Op::kRegister) {
    auto name = json.RequireString("name");
    v.ok = name.ok() && *name == w.versions[r.version].name;
    return v;
  }
  auto definitive = json.OptionalBool("definitive", false);
  auto answer = json.OptionalBool(VerdictField(r.op), false);
  const olapdc::JsonValue* field = json.Find(VerdictField(r.op));
  v.ok = definitive.ok() && *definitive && field != nullptr &&
         field->is_bool() && answer.ok() && *answer == w.expected[r.question];
  auto layer = json.OptionalString("cache_layer", "");
  if (layer.ok() && *layer == "response") v.layer = CacheLayer::kResponse;
  if (layer.ok() && *layer == "closure") v.layer = CacheLayer::kClosure;
  return v;
}

// ---------------------------------------------------------------------------
// One round against a fresh daemon.

struct Timing {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int status = -1;
  std::string body;
};

struct RoundResult {
  bool ok = true;
  std::string error;
  double setup_s = 0;
  double max_rss_mb = 0;
  std::vector<double> setup_us;  // per setup registration
  std::vector<double> timed_us;  // per timed position
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t shed = 0;
  uint64_t response_hits = 0;
  uint64_t closure_hits = 0;
  uint64_t reads = 0;
};

void Fail(RoundResult* r, const std::string& message) {
  if (r->ok) r->error = message;
  r->ok = false;
}

Timing Send(olapdc::tools::HttpClient* client, const Request& r) {
  Timing t;
  t.start_ns = Tracer::NowNs();
  t.status = client->Post(r.path, r.body, &t.body);
  t.end_ns = Tracer::NowNs();
  return t;
}

/// The daemon binary and the CPUs its processes run on (null: the
/// replayer's own).
struct Launch {
  std::string binary;
  const cpu_set_t* cpus = nullptr;
};

RoundResult RunRound(const Workload& w, const Launch& launch, Tracer* tracer) {
  RoundResult result;
  const auto spawned = Clock::now();
  Daemon daemon;
  std::string error;
  if (!daemon.Start(DaemonArgs(launch.binary, w), launch.cpus, &error)) {
    Fail(&result, error);
    return result;
  }
  std::vector<std::unique_ptr<olapdc::tools::HttpClient>> clients;
  for (int c = 0; c < w.connections; ++c) {
    clients.push_back(std::make_unique<olapdc::tools::HttpClient>(daemon.port()));
  }

  // Set-up: registrations (timed per request: write latency), warm-up.
  uint64_t sent = 0, received = 0;
  auto account = [&](const Request& r, const Timing& t) {
    ++sent;
    ++result.attempted;
    if (t.status > 0) ++received;
    if (t.status == 503) ++result.shed;
    const Verdict v = CheckResponse(w, r, t.status, t.body);
    if (!v.ok) {
      ++result.failed;
      if (t.status == 200) ++result.mismatches;
      Fail(&result, std::string(OpName(r.op)) + " " + r.arg + " answered " +
                        std::to_string(t.status) + ": " + t.body);
    }
    return v;
  };
  for (const Request& r : w.setup) {
    const Timing t = Send(clients[0].get(), r);
    result.setup_us.push_back(static_cast<double>(t.end_ns - t.start_ns) / 1e3);
    account(r, t);
  }
  for (const Request& r : w.warmup) account(r, Send(clients[0].get(), r));
  for (auto& client : clients) {
    if (!client->connected() && !client->Connect()) Fail(&result, "connect failed");
  }
  result.setup_s = SecondsSince(spawned);

  // Timed phase: each connection replays its share of the positions in
  // a closed loop (position i goes to connection i % connections).
  std::vector<Timing> timings(w.timed.size());
  std::vector<Tracer> thread_tracers(w.connections);
  auto replay = [&](int c) {
    for (size_t i = c; i < w.timed.size(); i += w.connections) {
      if (tracer != nullptr) {
        ScopedSpan span(&thread_tracers[c], "obs.roundtrip", static_cast<int32_t>(i));
        timings[i] = Send(clients[c].get(), w.timed[i]);
      } else {
        timings[i] = Send(clients[c].get(), w.timed[i]);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < w.connections; ++c) threads.emplace_back(replay, c);
  replay(0);
  for (std::thread& t : threads) t.join();
  clients.clear();

  const Daemon::Exit exit = daemon.Stop();
  result.max_rss_mb = exit.max_rss_mb;

  for (size_t i = 0; i < w.timed.size(); ++i) {
    const Request& r = w.timed[i];
    result.timed_us.push_back(
        static_cast<double>(timings[i].end_ns - timings[i].start_ns) / 1e3);
    const Verdict v = account(r, timings[i]);
    if (r.op == Op::kRegister) continue;
    ++result.reads;
    if (v.layer == CacheLayer::kResponse) ++result.response_hits;
    if (v.layer == CacheLayer::kClosure) ++result.closure_hits;
  }
  if (tracer != nullptr) {
    for (const Tracer& t : thread_tracers) tracer->Append(t);
  }

  // Conservation: every request sent got exactly one response, and the
  // daemon's drain line accounts for exactly those requests, all OK.
  if (received != sent) Fail(&result, "client conservation violated");
  unsigned long long requests = 0, ok = 0, errors = 0, shed = 0;
  const size_t at = exit.stderr_text.find("(requests=");
  if (at == std::string::npos ||
      std::sscanf(exit.stderr_text.c_str() + at,
                  "(requests=%llu ok=%llu errors=%llu shed=%llu", &requests,
                  &ok, &errors, &shed) != 4) {
    Fail(&result, "no drain line from olapdcd: " + exit.stderr_text);
  } else {
    result.shed += shed;
    if (requests != sent || ok != requests || errors != 0 || shed != 0) {
      Fail(&result, "drain line disagrees with the client: " + exit.stderr_text);
    }
  }
  if (exit.code != 0) {
    Fail(&result, "olapdcd exited " + std::to_string(exit.code));
  }
  return result;
}

// ---------------------------------------------------------------------------
// In-process layer replay (traced run only).

struct LayerRound {
  olapdc::DimsatStats dimsat;
  /// The same, per SchemaVersion::shape.
  std::map<std::string, olapdc::DimsatStats> by_shape;
  uint64_t response_evictions = 0;
  uint64_t nogood_entries = 0;
};

olapdc::obs::HttpRequest HttpPost(const Request& r) {
  olapdc::obs::HttpRequest request;
  request.method = "POST";
  request.path = r.path;
  request.body = r.body;
  return request;
}

void TraceWrite(Tracer* tracer, const Workload& w, const Request& r,
                int32_t index, uint32_t parent) {
  const std::string& text = w.versions[r.version].text;
  olapdc::Result<olapdc::DimensionSchema> parsed = [&] {
    ScopedSpan span(tracer, "io.schema_parse", index, parent);
    return olapdc::ParseSchemaText(text);
  }();
  if (parsed.ok()) {
    ScopedSpan span(tracer, "io.schema_serialize", index, parent);
    g_sink = olapdc::SerializeSchema(*parsed).size();
  }
  olapdc::service::SchemaRegistry scratch;
  ScopedSpan span(tracer, "service.register", index, parent);
  (void)scratch.Register(w.versions[r.version].name, text);
}

LayerRound InProcessReplay(const Workload& w, Tracer* tracer) {
  LayerRound out;
  // Pass 1: the same requests through an identically configured
  // DimService, with nothing else in between (so its caches, and the
  // CPU's, see what the daemon's saw).
  olapdc::service::SchemaRegistry registry;
  olapdc::exec::AdmissionGate gate(
      olapdc::exec::AdmissionGate::Options{kAdmissionHighWater, 50});
  std::unique_ptr<olapdc::service::ServiceCaches> caches;
  olapdc::service::DimService::Options options;
  options.registry = &registry;
  options.gate = &gate;
  options.default_deadline_ms = kDeadlineMs;
  options.max_deadline_ms = kDeadlineMs;
  options.memory_budget_bytes = static_cast<uint64_t>(kMemoryBudgetMb) << 20;
  options.max_threads = 1;
  if (w.cache_budget_mb > 0) {
    olapdc::service::ServiceCaches::Options cache_options;
    cache_options.memory_budget_bytes = static_cast<uint64_t>(w.cache_budget_mb) << 20;
    caches = std::make_unique<olapdc::service::ServiceCaches>(cache_options);
    options.caches = caches.get();
  }
  olapdc::service::DimService service(options);
  for (const Request& r : w.setup) service.HandleRequest(HttpPost(r));
  for (const Request& r : w.warmup) service.HandleRequest(HttpPost(r));
  for (size_t i = 0; i < w.timed.size(); ++i) {
    const olapdc::obs::HttpRequest request = HttpPost(w.timed[i]);
    ScopedSpan span(tracer, "service.handle", static_cast<int32_t>(i));
    service.HandleRequest(request);
  }
  if (caches != nullptr) {
    out.response_evictions = caches->ResponseStats().evictions;
    out.nogood_entries = caches->NoGoodStats().entries;
  }

  // Pass 2: each layer's public entry points, one request at a time.
  // Setup registrations carry negative indices (-1 - k).
  for (size_t k = 0; k < w.setup.size(); ++k) {
    const int32_t index = -1 - static_cast<int32_t>(k);
    ScopedSpan root(tracer, "layers", index);
    TraceWrite(tracer, w, w.setup[k], index, root.id());
  }
  const olapdc::DimsatOptions defaults;
  for (size_t i = 0; i < w.timed.size(); ++i) {
    const Request& r = w.timed[i];
    const int32_t index = static_cast<int32_t>(i);
    ScopedSpan root(tracer, "layers", index);
    {
      ScopedSpan span(tracer, "io.json_parse", index, root.id());
      (void)olapdc::ParseJson(r.body);
    }
    if (r.op == Op::kRegister) {
      TraceWrite(tracer, w, r, index, root.id());
      continue;
    }
    const olapdc::DimensionSchema& ds = *w.versions[r.version].schema;
    const olapdc::HierarchySchema& h = ds.hierarchy();
    olapdc::DimsatStats stats;
    if (r.op == Op::kCheck) {
      ScopedSpan span(tracer, "core.check", index, root.id());
      stats = olapdc::RunDimsat(ds, h.FindCategory(r.arg), defaults).stats;
    } else if (r.op == Op::kImplies) {
      olapdc::Result<olapdc::DimensionConstraint> alpha = [&] {
        ScopedSpan span(tracer, "constraint.parse", index, root.id());
        return olapdc::ParseConstraint(h, r.arg);
      }();
      if (!alpha.ok()) continue;
      {
        ScopedSpan span(tracer, "constraint.normalize", index, root.id());
        auto expanded = olapdc::ExpandShorthands(h, alpha->expr);
        if (expanded.ok()) (void)olapdc::Simplify(*expanded);
      }
      ScopedSpan span(tracer, "core.implies", index, root.id());
      auto implied = olapdc::Implies(ds, *alpha, defaults);
      if (implied.ok()) stats = implied->stats;
    } else {
      std::vector<olapdc::CategoryId> sources;
      for (const std::string& s : r.sources) sources.push_back(h.FindCategory(s));
      ScopedSpan span(tracer, "core.summarizable", index, root.id());
      auto summarizable =
          olapdc::IsSummarizable(ds, h.FindCategory(r.arg), sources, defaults);
      if (summarizable.ok()) stats = summarizable->stats;
    }
    olapdc::AccumulateStats(&out.dimsat, stats);
    olapdc::AccumulateStats(&out.by_shape[w.versions[r.version].shape], stats);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolation percentile (q in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Per-position best (minimum) over the first `k` rounds (all when
/// `k` is 0).
std::vector<double> Best(const std::vector<std::vector<double>>& rounds, size_t k = 0) {
  if (k == 0 || k > rounds.size()) k = rounds.size();
  std::vector<double> best;
  for (size_t r = 0; r < k; ++r) {
    if (best.empty()) best = rounds[r];
    for (size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], rounds[r][i]);
  }
  return best;
}

struct Summary {
  int rounds = 0;
  /// Per round: each timed position's latency, each set-up write's.
  std::vector<std::vector<double>> timed_us;
  std::vector<std::vector<double>> setup_us;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t shed = 0;
  std::vector<double> sentinel_ms;
  std::string error;
  RoundResult last;
};

/// Rounds until `seconds` have passed (at least `min_rounds` of them);
/// stops early after a failed round.
void RunRounds(const Workload& w, const Launch& daemon, double seconds,
               int min_rounds, Tracer* tracer, Summary* s,
               std::vector<LayerRound>* layers) {
  const auto start = Clock::now();
  for (int n = 0; n < min_rounds || SecondsSince(start) < seconds; ++n) {
    if (tracer != nullptr) tracer->set_round(s->rounds);
    RoundResult r = RunRound(w, daemon, tracer);
    ++s->rounds;
    s->attempted += r.attempted;
    s->failed += r.failed;
    s->mismatches += r.mismatches;
    s->shed += r.shed;
    if (!r.ok) {
      s->error = r.error;
      if (r.failed == 0) ++s->failed;  // a lifecycle failure, not an answer
      return;
    }
    s->timed_us.push_back(r.timed_us);
    s->setup_us.push_back(r.setup_us);
    s->setup_s.push_back(r.setup_s);
    s->rss_mb.push_back(r.max_rss_mb);
    s->sentinel_ms.push_back(SentinelMs());
    if (layers != nullptr) layers->push_back(InProcessReplay(w, tracer));
    s->last = std::move(r);
  }
}

/// Read positions' and write positions' best latencies over the first
/// `k` rounds (all when 0).
void SplitPositions(const Workload& w, const Summary& s, size_t k,
                    std::vector<double>* reads, std::vector<double>* writes) {
  const std::vector<double> best = Best(s.timed_us, k);
  for (size_t i = 0; i < best.size(); ++i) {
    (w.timed[i].op == Op::kRegister ? writes : reads)->push_back(best[i]);
  }
  for (double us : Best(s.setup_us, k)) writes->push_back(us);
}

std::string Metric(const std::string& name, double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return olapdc::obs::JsonString(name) + ": {\"value\": " + buf +
         ", \"unit\": " + olapdc::obs::JsonString(unit) + "}";
}

/// Per-position best duration of every span named `name` (keyed by
/// request index), over all recorded rounds.
std::map<int32_t, double> BestSpans(const Tracer& tracer, const char* name) {
  std::map<int32_t, double> best;
  for (const Span& s : tracer.spans()) {
    if (std::strcmp(s.name, name) != 0) continue;
    auto [it, inserted] = best.emplace(s.request, s.us());
    if (!inserted) it->second = std::min(it->second, s.us());
  }
  return best;
}

std::vector<double> Values(const std::map<int32_t, double>& m) {
  std::vector<double> out;
  for (const auto& [k, v] : m) out.push_back(v);
  return out;
}

struct Args {
  std::string daemon;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_replay --daemon PATH --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

/// Where the replayer and its daemons run, on fixed CPUs so that the
/// scheduler does not move either side between rounds: on a shared KVM
/// host what a wake-up costs depends on where it lands. With one
/// connection the client waits while the daemon works, so both share
/// one CPU and no wake-up crosses CPUs. With more, the replayer keeps
/// one CPU and each daemon gets one per connection apart from it, so
/// that the connections' requests are served concurrently and none
/// queues behind another's. The last CPUs are used: CPU 0 takes most
/// interrupts.
struct Placement {
  int client = -1;
  std::vector<int> daemon;
  cpu_set_t daemon_set;
};

/// Pins this process and fills `p`; a host with too few CPUs gives the
/// daemon the ones it has. False when the affinity cannot be read or
/// set (nothing is pinned then).
bool Place(int connections, Placement* p) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  std::vector<int> cpus;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return false;
  p->client = cpus[0];
  if (connections == 1 || cpus.size() == 1) {
    p->daemon = {p->client};
  } else {
    for (size_t k = 1; k < cpus.size(); ++k) {
      if (p->daemon.size() == static_cast<size_t>(connections)) break;
      p->daemon.push_back(cpus[k]);
    }
  }
  CPU_ZERO(&p->daemon_set);
  for (int c : p->daemon) CPU_SET(c, &p->daemon_set);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(p->client, &one);
  return ::sched_setaffinity(0, sizeof(one), &one) == 0;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.daemon.empty()) return Usage();

  const auto run_start = Clock::now();
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Placement placement;
  const bool pinned = Place(w.connections, &placement);
  const Launch daemon{args.daemon, pinned ? &placement.daemon_set : nullptr};
  std::string error;
  if (!ComputeOracle(&w, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  const double prepare_s = SecondsSince(run_start);
  const double sentinel_start = SentinelMs();

  Summary untraced;
  Summary traced;
  Tracer tracer;
  std::vector<LayerRound> layers;
  if (args.trace == 0) {
    RunRounds(w, daemon, args.seconds, 3, nullptr, &untraced, nullptr);
  } else {
    olapdc::obs::MetricsRegistry::Global().Enable();  // as olapdcd does
    // Untraced and traced rounds alternate, so both see the same host.
    const auto start = Clock::now();
    while (untraced.error.empty() && traced.error.empty() &&
           (traced.rounds < 2 || SecondsSince(start) < args.seconds)) {
      RunRounds(w, daemon, 0, 1, nullptr, &untraced, nullptr);
      if (untraced.error.empty()) {
        RunRounds(w, daemon, 0, 1, &tracer, &traced, &layers);
      }
    }
  }
  const double sentinel_end = SentinelMs();

  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + traced.failed;
  const std::string failure = !untraced.error.empty() ? untraced.error : traced.error;
  const bool correct = failure.empty() && failed == 0;
  if (!failure.empty()) std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());

  std::vector<std::string> metrics;
  std::vector<double> reads, writes;
  SplitPositions(w, untraced, 0, &reads, &writes);
  if (args.trace == 0) {
    metrics.push_back(Metric("p50_us", Percentile(reads, 0.5), "us"));
    metrics.push_back(Metric("p99_us", Percentile(reads, 0.99), "us"));
    // A closed loop of `connections` clients at the best-of-rounds
    // latencies: the round the host would run outside its slow phases.
    double best_sum_us = 0;
    for (double us : Best(untraced.timed_us)) best_sum_us += us;
    metrics.push_back(Metric(
        "throughput_rps",
        best_sum_us > 0 ? w.connections * w.timed.size() / (best_sum_us / 1e6) : 0,
        "1/s"));
    metrics.push_back(Metric("write_p50_us", Percentile(writes, 0.5), "us"));
    metrics.push_back(Metric(
        "definitive_ratio",
        attempted > 0 ? static_cast<double>(attempted - failed) / attempted : 0,
        "ratio"));
    metrics.push_back(Metric("setup_s", Percentile(untraced.setup_s, 0), "s"));
    metrics.push_back(Metric("peak_rss_mb", Percentile(untraced.rss_mb, 0.5), "MB"));
  } else if (!layers.empty()) {
    // Overhead: both sides' best over the same number of rounds (a
    // best-of estimate falls as rounds are added).
    const size_t k = std::min(untraced.timed_us.size(), traced.timed_us.size());
    std::vector<double> untraced_reads, traced_reads, unused;
    SplitPositions(w, untraced, k, &untraced_reads, &unused);
    SplitPositions(w, traced, k, &traced_reads, &unused);
    const double p50_untraced = Percentile(untraced_reads, 0.5);
    const std::map<int32_t, double> roundtrip = BestSpans(tracer, "obs.roundtrip");
    const std::map<int32_t, double> handle = BestSpans(tracer, "service.handle");
    std::vector<double> transport;
    for (const auto& [i, us] : roundtrip) {
      auto it = handle.find(i);
      if (it != handle.end()) transport.push_back(us - it->second);
    }
    const RoundResult& last = traced.last;
    const LayerRound& layer = layers.back();
    const olapdc::DimsatStats& d = layer.dimsat;
    auto p = [&](const char* span, double q) {
      return Percentile(Values(BestSpans(tracer, span)), q);
    };
    metrics.push_back(Metric("obs.transport_us.p50", Percentile(transport, 0.5), "us"));
    metrics.push_back(Metric("service.handle_us.p50", p("service.handle", 0.5), "us"));
    metrics.push_back(Metric("service.handle_us.p99", p("service.handle", 0.99), "us"));
    metrics.push_back(Metric(
        "service.cache_hit_ratio",
        last.reads > 0 ? static_cast<double>(last.response_hits + last.closure_hits) /
                             last.reads
                       : 0,
        "ratio"));
    metrics.push_back(Metric("service.response_hits", last.response_hits, "count"));
    metrics.push_back(Metric("service.closure_hits", last.closure_hits, "count"));
    metrics.push_back(Metric("service.register_us.p50", p("service.register", 0.5), "us"));
    metrics.push_back(Metric("service.response_evictions", layer.response_evictions, "count"));
    metrics.push_back(Metric("service.nogood_entries", layer.nogood_entries, "count"));
    metrics.push_back(Metric("io.json_parse_us.p50", p("io.json_parse", 0.5), "us"));
    metrics.push_back(Metric("io.schema_parse_us.p50", p("io.schema_parse", 0.5), "us"));
    metrics.push_back(Metric("io.schema_serialize_us.p50", p("io.schema_serialize", 0.5), "us"));
    metrics.push_back(Metric("constraint.parse_us.p50", p("constraint.parse", 0.5), "us"));
    metrics.push_back(Metric("constraint.normalize_us.p50", p("constraint.normalize", 0.5), "us"));
    for (const char* op : {"check", "implies", "summarizable"}) {
      const std::string span = std::string("core.") + op;
      for (const auto& [suffix, q] : {std::pair{".p50", 0.5}, std::pair{".p99", 0.99}}) {
        metrics.push_back(Metric(span + "_us" + suffix,
                                 Percentile(Values(BestSpans(tracer, span.c_str())), q),
                                 "us"));
      }
    }
    metrics.push_back(Metric("core.dimsat.expand_calls", d.expand_calls, "count"));
    metrics.push_back(Metric("core.dimsat.check_calls", d.check_calls, "count"));
    metrics.push_back(Metric("core.dimsat.assignments_tried", d.assignments_tried, "count"));
    metrics.push_back(Metric("core.dimsat.prunes",
                             d.into_prunes + d.shortcut_prunes + d.cycle_prunes, "count"));
    metrics.push_back(Metric("core.dimsat.dead_ends", d.dead_ends, "count"));
    metrics.push_back(Metric("core.dimsat.nogood_prunes", d.nogood_prunes, "count"));
    metrics.push_back(Metric("core.dimsat.frozen_found", d.frozen_found, "count"));
    metrics.push_back(Metric(
        "core.dimsat.check_yield",
        d.check_calls > 0 ? static_cast<double>(d.frozen_found) / d.check_calls : 0,
        "ratio"));
    for (const char* shape : {"layered", "components"}) {
      auto it = layer.by_shape.find(shape);
      const olapdc::DimsatStats none;
      const olapdc::DimsatStats& of = it == layer.by_shape.end() ? none : it->second;
      metrics.push_back(Metric(std::string("core.dimsat.expand_calls.") + shape,
                               of.expand_calls, "count"));
      metrics.push_back(Metric(std::string("core.dimsat.check_calls.") + shape,
                               of.check_calls, "count"));
    }
    metrics.push_back(Metric("exec.shed", untraced.shed + traced.shed, "count"));
    const double p50_traced = Percentile(traced_reads, 0.5);
    metrics.push_back(Metric(
        "trace.overhead_pct",
        p50_untraced > 0 ? (p50_traced - p50_untraced) / p50_untraced * 100 : 0, "%"));
    if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out, traced.rounds - 1)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  }

  // Diagnostics (not metrics): provenance, sentinel, round counts.
  std::vector<double> sentinel = untraced.sentinel_ms;
  sentinel.insert(sentinel.end(), traced.sentinel_ms.begin(), traced.sentinel_ms.end());
  std::string daemon_cpus;
  for (int c : placement.daemon) {
    daemon_cpus += (daemon_cpus.empty() ? "" : ",") + std::to_string(c);
  }
  char report[1024];
  std::snprintf(
      report, sizeof(report),
      "{\"report\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"client_cpu\": %d, \"daemon_cpus\": \"%s\", "
      "\"rounds\": %d, \"traced_rounds\": %d, \"positions\": %zu, "
      "\"questions\": %zu, \"prepare_s\": %.3f, \"mismatches\": %llu, "
      "\"sentinel_ms\": {\"start\": %.3f, \"end\": %.3f, \"round_min\": %.3f, "
      "\"round_median\": %.3f, \"round_max\": %.3f}, \"host\": ",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
      pinned ? placement.client : -1, pinned ? daemon_cpus.c_str() : "",
      untraced.rounds, traced.rounds, w.timed.size(), w.expected.size(), prepare_s,
      static_cast<unsigned long long>(untraced.mismatches + traced.mismatches),
      sentinel_start, sentinel_end, Percentile(sentinel, 0), Percentile(sentinel, 0.5),
      Percentile(sentinel, 1));
  std::printf("%s%s}}\n", report, olapdc::bench::HostJson().c_str());

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += metrics[i];
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
