// server_ckpt: cepshed_server as a child process on a Unix socket, at its
// default checkpoint interval. One driver thread keeps two tenant
// connections in a closed loop, one fixed-size batch in flight on each; a
// batch is its event records followed by `!drain`, which pumps the tenant's
// queue and replies without snapshotting. Recall and precision come from the
// artifacts the server drains on SIGTERM.
//
// A traced run replays the same traffic in-process instead: frames through
// FrameReader, records through TenantSession::IngestLine with automatic
// checkpoints off, and TenantSession::Checkpoint(false) called every 256
// events so snapshot time is timed apart from ingest. Its untraced passes
// run that replay without spans, so the tracing overhead compares like with
// like. Engine and shedder time come from a second replay through
// identically configured engines.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "common/string_util.h"
#include "obs/audit.h"
#include "service/framing.h"
#include "service/tenant.h"
#include "workload/google_trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cep::service::TenantSession;

constexpr int kTenants = 2;
constexpr size_t kBatchEvents = 8;
constexpr size_t kCheckpointInterval = 256;  // cepshed_server's default
constexpr int kPollTimeoutMs = 30000;
constexpr int kExtraSetups = 7;
const char* const kQueryNames[] = {"q1", "q2"};

/// The server child, if one is running: killed at exit so a run that dies
/// mid-pass leaves no process behind.
pid_t g_server_pid = -1;

void KillServerAtExit() {
  if (g_server_pid > 0) {
    ::kill(g_server_pid, SIGKILL);
    ::waitpid(g_server_pid, nullptr, 0);
    g_server_pid = -1;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Sums `name=<value>` over a drained metrics.txt dump.
double MetricsField(const std::string& text, const std::string& name) {
  const std::string key = " " + name + "=";
  const size_t at = (" " + text).find(key);
  if (at == std::string::npos) Die("metrics dump lacks " + name);
  return std::strtod(text.c_str() + at + key.size() - 1, nullptr);
}

struct Tenant {
  std::string name;
  std::vector<std::string> lines;
  std::vector<std::string> wire;    // per batch: records + "!drain\n"
  std::vector<std::string> frames;  // per batch: records as binary frames
};

/// A blocking Unix-socket connection with a line buffer.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) Die("socket: " + std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) Die("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("connect " + path + ": " + std::strerror(errno));
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) Die("write to server: " + std::string(std::strerror(errno)));
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads what the socket holds now and appends complete lines to `out`.
  void ReadLines(std::vector<std::string>* out) {
    char buf[1 << 14];
    ssize_t n;
    do {
      n = ::read(fd_, buf, sizeof(buf));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) Die("server closed the connection");
    buffer_.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      out->push_back(buffer_.substr(start, nl - start));
    }
    buffer_.erase(0, start);
  }

  std::string ReadLine() {
    while (pending_.empty()) ReadLines(&pending_);
    std::string line = pending_.front();
    pending_.erase(pending_.begin());
    return line;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::vector<std::string> pending_;
};

class ServerCkpt : public Workload {
 public:
  explicit ServerCkpt(const Env& env) : env_(env) {
    Check(cep::GoogleTraceGenerator::RegisterSchemas(&registry_),
          "cluster schemas");
    for (int i = 0; i < kTenants; ++i) {
      cep::GoogleTraceOptions options;
      options.duration = 4 * cep::kHour;
      options.jobs_per_hour = 150.0;
      options.seed = env.seed * kTenants + static_cast<uint64_t>(i);
      cep::GoogleTraceGenerator generator(options);
      Tenant tenant;
      tenant.name = cep::StrFormat("t%d", i);
      tenant.lines =
          RenderCsv(Take(generator.Generate(registry_), "tenant trace"));
      for (size_t b = 0; b < tenant.lines.size(); b += kBatchEvents) {
        std::string wire;
        std::string frames;
        for (size_t k = b; k < std::min(b + kBatchEvents, tenant.lines.size());
             ++k) {
          wire += tenant.lines[k] + "\n";
          frames += cep::service::EncodeFrame(tenant.lines[k]);
        }
        tenant.wire.push_back(wire + "!drain\n");
        tenant.frames.push_back(std::move(frames));
      }
      tenants_.push_back(std::move(tenant));
    }
    // Batches during which a tenant's automatic checkpoint fires: the
    // snapshot stalls that make up the latency tail.
    size_t batches = 0;
    size_t stalled = 0;
    for (const Tenant& tenant : tenants_) {
      for (size_t first = 0; first < tenant.lines.size();
           first += kBatchEvents) {
        const size_t end = std::min(first + kBatchEvents, tenant.lines.size());
        stalled += end / kCheckpointInterval > first / kCheckpointInterval;
        ++batches;
      }
    }
    snapshot_batch_share_ =
        static_cast<double>(stalled) / static_cast<double>(batches);
    const std::string hash =
        "hash=submit:priority,schedule:machine_id,schedule:priority";
    specs_[0] = "theta=80 shedder=sbls " + hash +
                " bucket=4 slices=16 wplus=4 wminus=1 seed=" +
                std::to_string(0x5b15 + env.seed);
    specs_[1] = "theta=80 shedder=sbls "
                "hash=schedule:machine_id,schedule:sched_class,fail:machine_id"
                " bucket=4 slices=16 wplus=4 wminus=1 seed=" +
                std::to_string(0x5b16 + env.seed);
    texts_[0] = Q1Text(3, 5);
    texts_[1] = Q2Text(3, -1);
    std::atexit(KillServerAtExit);
    // Reference: the same traffic through in-process sessions with the same
    // specs. Golden: the same without shedding.
    reference_ = Replay("ref", /*shed=*/true);
    golden_ = Replay("gold", /*shed=*/false);
  }

  PassResult RunPass(bool traced) override {
    const std::string dir = cep::StrFormat("p%d", pass_++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    // A traced run's untraced passes replay in-process like its traced
    // ones; an untraced run goes through the server.
    PassResult result = traced       ? TracedPass(dir)
                         : env_.trace ? ReplayPass(dir)
                                      : SocketPass(dir);
    result.traced = traced;
    fs::remove_all(dir);
    return result;
  }

 private:
  struct Server {
    pid_t pid = -1;
    int stderr_fd = -1;
    std::string socket;
  };

  /// Starts cepshed_server on `dir` and waits for its "serving" line.
  Server Spawn(const std::string& dir) {
    Server server;
    server.socket = dir + "/s.sock";
    const std::string root = dir + "/root";
    const std::string out = dir + "/out";
    fs::create_directories(root);
    fs::create_directories(out);
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) Die("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) Die("fork failed");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(pipe_fds[1], STDERR_FILENO);
      const int null_fd = ::open("/dev/null", O_WRONLY);
      ::dup2(null_fd, STDOUT_FILENO);
      ::close(pipe_fds[0]);
      const char* argv[] = {env_.server_binary.c_str(), "--socket",
                            server.socket.c_str(),      "--root",
                            root.c_str(),               "--out-dir",
                            out.c_str(),                nullptr};
      ::execv(argv[0], const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    server.pid = pid;
    server.stderr_fd = pipe_fds[0];
    g_server_pid = pid;
    std::string seen;
    while (seen.find("serving") == std::string::npos) {
      pollfd pfd{server.stderr_fd, POLLIN, 0};
      if (::poll(&pfd, 1, kPollTimeoutMs) <= 0) Die("server did not start");
      char buf[256];
      const ssize_t n = ::read(server.stderr_fd, buf, sizeof(buf));
      if (n <= 0) Die("server exited at start: " + seen);
      seen.append(buf, static_cast<size_t>(n));
    }
    return server;
  }

  /// SIGTERM (the server drains and writes artifacts), then reap. Returns
  /// false unless the server exited cleanly.
  bool Stop(Server* server) {
    ::kill(server->pid, SIGTERM);
    int status = 0;
    while (::waitpid(server->pid, &status, 0) < 0 && errno == EINTR) {
    }
    g_server_pid = -1;
    ::close(server->stderr_fd);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// Binds tenant `i` on `conn` and registers its schema and queries.
  /// Returns the number of replies that were not `!ok`.
  uint64_t Handshake(Conn* conn, int i) {
    std::string script = "!hello " + tenants_[i].name + "\n!schema cluster\n";
    for (int q = 0; q < 2; ++q) {
      script += std::string("!query ") + kQueryNames[q] + " " + specs_[q] +
                " :: " + texts_[q] + "\n";
    }
    conn->Send(script);
    uint64_t bad = 0;
    for (int k = 0; k < 4; ++k) {
      if (conn->ReadLine().rfind("!ok", 0) != 0) ++bad;
    }
    return bad;
  }

  /// Spawns a fresh server and binds every tenant: process start to ready
  /// for the first event, appended to `result->setup_s`.
  Server SetUp(const std::string& dir,
               std::vector<std::unique_ptr<Conn>>* conns,
               PassResult* result) {
    const int64_t t0 = NowNs();
    Server server = Spawn(dir);
    for (int i = 0; i < kTenants; ++i) {
      conns->push_back(std::make_unique<Conn>(server.socket));
      result->failed += Handshake(conns->back().get(), i);
    }
    result->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return server;
  }

  PassResult SocketPass(const std::string& dir) {
    PassResult result;
    // Extra set-ups steady the set-up median; only the last server serves.
    for (int k = 0; k < kExtraSetups; ++k) {
      std::vector<std::unique_ptr<Conn>> conns;
      Server server = SetUp(dir + "/setup" + std::to_string(k), &conns,
                            &result);
      conns.clear();
      if (!Stop(&server)) ++result.failed;
    }
    std::vector<std::unique_ptr<Conn>> conns;
    Server server = SetUp(dir, &conns, &result);

    // Closed loop: one batch in flight per connection.
    std::vector<size_t> next(kTenants, 0);
    std::vector<int64_t> sent_at(kTenants, 0);
    std::vector<uint64_t> expect(kTenants, 0);
    size_t total_batches = 0;
    for (const Tenant& tenant : tenants_) total_batches += tenant.wire.size();
    result.latency_us.reserve(total_batches);
    auto send_next = [&](int i) {
      const Tenant& tenant = tenants_[i];
      expect[i] = std::min(tenant.lines.size(),
                           (next[i] + 1) * kBatchEvents);
      sent_at[i] = NowNs();
      conns[i]->Send(tenant.wire[next[i]]);
      ++next[i];
    };
    const int64_t start = NowNs();
    int in_flight = 0;
    for (int i = 0; i < kTenants; ++i) {
      send_next(i);
      ++in_flight;
    }
    std::vector<std::string> lines;
    while (in_flight > 0) {
      pollfd fds[kTenants];
      for (int i = 0; i < kTenants; ++i) fds[i] = {conns[i]->fd(), POLLIN, 0};
      if (::poll(fds, kTenants, kPollTimeoutMs) <= 0) Die("server stalled");
      for (int i = 0; i < kTenants; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        lines.clear();
        conns[i]->ReadLines(&lines);
        for (const std::string& line : lines) {
          const std::string prefix = "!ok drain ingested=";
          if (line.rfind(prefix, 0) != 0) {
            ++result.failed;  // an !err for a record of the batch
            continue;
          }
          result.latency_us.push_back(
              static_cast<double>(NowNs() - sent_at[i]) / 1e3);
          if (std::strtoull(line.c_str() + prefix.size(), nullptr, 10) !=
              expect[i]) {
            ++result.failed;
          }
          if (next[i] < tenants_[i].wire.size()) {
            send_next(i);
          } else {
            --in_flight;
          }
        }
      }
    }
    result.timed_s = static_cast<double>(NowNs() - start) / 1e9;
    for (const Tenant& tenant : tenants_) result.events += tenant.lines.size();
    result.attempted += result.events;
    const std::string pid = std::to_string(server.pid);
    result.peak_rss_mb = ProcStatusField(pid, "VmHWM:") / 1024;
    result.counts["server_threads"] = ProcStatusField(pid, "Threads:");
    result.counts["ckpt.snapshot_batch_share"] = snapshot_batch_share_;
    conns.clear();
    if (!Stop(&server)) ++result.failed;

    // Output gate against the in-process replay, quality against golden.
    double edge_evaluations = 0;
    double runs_shed = 0;
    Compare(dir + "/out", &result);
    for (const Tenant& tenant : tenants_) {
      for (const char* q : kQueryNames) {
        const std::string metrics = ReadFile(
            dir + "/out/" + tenant.name + "--" + q + ".metrics.txt");
        edge_evaluations += MetricsField(metrics, "edge_evaluations");
        runs_shed += MetricsField(metrics, "runs_shed");
      }
    }
    result.counts["engine.edge_evaluations"] = edge_evaluations;
    result.counts["shedding.runs_shed"] = runs_shed;
    return result;
  }

  /// Adds mismatches against the reference and recall/precision against
  /// golden for the artifacts drained into `out`.
  void Compare(const std::string& out, PassResult* result) {
    uint64_t found = 0;
    uint64_t golden = 0;
    uint64_t common = 0;
    for (const auto& [key, expected] : reference_) {
      const std::vector<std::string> got =
          SplitLines(ReadFile(out + "/" + key + ".matches.csv"));
      result->failed += Mismatches(got, expected);
      result->attempted += expected.size();
      const std::vector<std::string>& gold = golden_.at(key);
      found += got.size();
      golden += gold.size();
      common += CommonCount(got, gold);
    }
    std::tie(result->recall, result->precision) =
        RecallPrecision(common, found, golden);
    result->counts["matches"] = static_cast<double>(found);
  }

  std::unique_ptr<TenantSession> MakeSession(const std::string& root, int i,
                                             bool shed) {
    TenantSession::Config config;
    config.tenant = tenants_[i].name;
    config.root = root;
    config.checkpoint_interval_events = 0;
    std::unique_ptr<TenantSession> session =
        Take(TenantSession::Create(config), "tenant session");
    Check(session->ApplySchemaCommand({"cluster"}), "tenant schema");
    for (int q = 0; q < 2; ++q) {
      Check(session->AddQuery(kQueryNames[q],
                              shed ? specs_[q] : "shedder=none", texts_[q]),
            "tenant query");
    }
    return session;
  }

  /// In-process replay of every tenant's traffic; matches per
  /// "<tenant>--<query>" as the server's drain writes them.
  std::map<std::string, std::vector<std::string>> Replay(
      const std::string& dir, bool shed) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::map<std::string, std::vector<std::string>> matches;
    for (int i = 0; i < kTenants; ++i) {
      auto session = MakeSession(dir + "/" + tenants_[i].name, i, shed);
      for (const std::string& line : tenants_[i].lines) {
        Check(session->IngestLine(line), "replay ingest");
      }
      Check(session->Drain(dir + "/out"), "replay drain");
      for (const char* q : kQueryNames) {
        const std::string key = tenants_[i].name + "--" + q;
        matches[key] =
            SplitLines(ReadFile(dir + "/out/" + key + ".matches.csv"));
      }
    }
    fs::remove_all(dir);
    return matches;
  }

  /// The in-process replay a traced run times: each tenant's frames through
  /// FrameReader, records through TenantSession::IngestLine with automatic
  /// checkpoints off, and Checkpoint(false) every kCheckpointInterval
  /// events. Spans go to `tracer` unless it is null. The drained matches
  /// are checked against the reference. Returns the sessions, still open.
  std::vector<std::unique_ptr<TenantSession>> ReplaySessions(
      const std::string& dir, Tracer* tracer, PassResult* result) {
    std::vector<std::unique_ptr<TenantSession>> sessions;
    for (int i = 0; i < kTenants; ++i) {
      sessions.push_back(
          MakeSession(dir + "/" + tenants_[i].name, i, /*shed=*/true));
    }
    std::vector<cep::service::FrameReader> readers(kTenants);
    std::vector<size_t> since_checkpoint(kTenants, 0);
    size_t max_batches = 0;
    for (const Tenant& tenant : tenants_) {
      max_batches = std::max(max_batches, tenant.frames.size());
      result->events += tenant.lines.size();
    }
    const int64_t start = NowNs();
    for (size_t b = 0; b < max_batches; ++b) {
      for (int i = 0; i < kTenants; ++i) {
        if (b >= tenants_[i].frames.size()) continue;
        const std::string& frames = tenants_[i].frames[b];
        readers[i].Feed(frames.data(), frames.size());
        for (;;) {
          cep::Result<cep::service::FrameReader::Message> message = [&] {
            Span span(tracer, Layer::kFrame);
            return readers[i].Next();
          }();
          if (!message.ok()) {
            ++result->failed;
            continue;
          }
          if (!message.ValueOrDie().have) break;
          {
            Span span(tracer, Layer::kIngest);
            if (!sessions[i]->IngestLine(message.ValueOrDie().payload).ok()) {
              ++result->failed;
            }
          }
          if (++since_checkpoint[i] == kCheckpointInterval) {
            since_checkpoint[i] = 0;
            Span span(tracer, Layer::kSnapshot);
            if (!sessions[i]->Checkpoint(/*synchronous=*/false).ok()) {
              ++result->failed;
            }
          }
        }
      }
    }
    result->timed_s = static_cast<double>(NowNs() - start) / 1e9;
    result->attempted += result->events;

    // Output gate: the sessions drain exactly what the reference did.
    for (auto& session : sessions) {
      Check(session->Drain(dir + "/out"), "replay drain");
    }
    Compare(dir + "/out", result);
    return sessions;
  }

  /// An untraced pass of a traced run: the traced pass's replay without
  /// spans, so that traced minus untraced throughput is tracing cost alone,
  /// not the socket and process hop of SocketPass.
  PassResult ReplayPass(const std::string& dir) {
    PassResult result;
    // The returned sessions close here, joining their checkpoint writers.
    ReplaySessions(dir, nullptr, &result);
    return result;
  }

  PassResult TracedPass(const std::string& dir) {
    PassResult result;
    Tracer tracer;
    // Process start to listening, on its own server.
    {
      const int64_t t0 = NowNs();
      Server server = Spawn(dir + "/spawn");
      result.layers["service.spawn_ms"] =
          static_cast<double>(NowNs() - t0) / 1e6;
      if (!Stop(&server)) ++result.failed;
    }
    std::vector<std::unique_ptr<TenantSession>> sessions =
        ReplaySessions(dir, &tracer, &result);

    // Engine-level replay with the shedder behind the tracing wrapper.
    cep::EngineMetrics metrics;
    Tracer engine_tracer;
    double snapshot_bytes = 0;
    for (int i = 0; i < kTenants; ++i) {
      std::vector<std::unique_ptr<cep::Engine>> engines;
      std::vector<std::unique_ptr<cep::obs::ShedAuditLog>> audits;
      std::vector<const cep::Engine*> views;
      for (int q = 0; q < 2; ++q) {
        auto kv = Take(cep::service::ParseKvSpec(specs_[q]), "spec");
        cep::EngineOptions options = Take(
            cep::service::MakeEngineOptionsFromSpec(kv, 0.0, 0), "options");
        cep::ShedderPtr shedder = MaybeTrace(
            Take(cep::service::MakeShedderFromSpec(kv, registry_), "shedder"),
            &engine_tracer);
        engines.push_back(std::make_unique<cep::Engine>(
            CompileQuery(texts_[q], registry_, &engine_tracer), options,
            std::move(shedder)));
        engines.back()->SetObsId(static_cast<uint32_t>(q));
        audits.push_back(std::make_unique<cep::obs::ShedAuditLog>(1 << 12));
        engines.back()->AttachAuditLog(audits.back().get());
        views.push_back(engines.back().get());
      }
      size_t offered = 0;
      PassResult replay;
      FeedLines(
          registry_, tenants_[i].lines, &engine_tracer, views,
          [&](const cep::EventPtr& event) {
            cep::Status status;
            for (auto& engine : engines) {
              const cep::Status st = engine->OfferEvent(event);
              if (status.ok()) status = st;
            }
            if (++offered % kCheckpointInterval == 0) {
              for (auto& engine : engines) {
                Span span(&engine_tracer, Layer::kSerialize);
                snapshot_bytes += static_cast<double>(
                    Take(engine->SerializeSnapshot(), "serialize").size());
              }
            }
            return status;
          },
          &replay);
      result.failed += replay.failed;
      result.layers["engine.peak_run_bytes"] +=
          replay.layers["engine.peak_run_bytes"];
      for (int q = 0; q < 2; ++q) {
        metrics.Add(engines[q]->metrics());
        // The direct engines must emit what the sessions' engines did.
        result.failed += Mismatches(
            Fingerprints(*engines[q]),
            Fingerprints(*sessions[i]->FindEngine(kQueryNames[q])));
      }
    }
    sessions.clear();  // joins the checkpoint writers

    // The engine replay splits IngestLine's time into decode, engine (with
    // its shedder) and the rest, which is the service's own: parsing aside,
    // the WAL append and session bookkeeping.
    const double n = static_cast<double>(result.events);
    const double engine_ns = engine_tracer.total_ns(Layer::kEngine) -
                             engine_tracer.total_ns(Layer::kSerialize);
    const double service_ns = tracer.total_ns(Layer::kIngest) - engine_ns -
                              engine_tracer.total_ns(Layer::kDecode);
    EngineLayers(engine_tracer, metrics, result.events, 2 * kTenants, &result);
    const uint64_t snapshots = tracer.count(Layer::kSnapshot);
    result.layers["ckpt.snapshots"] = static_cast<double>(snapshots);
    result.layers["ckpt.snapshot_us"] =
        snapshots == 0 ? 0 : tracer.total_ns(Layer::kSnapshot) / 1e3 /
                                 static_cast<double>(snapshots);
    result.layers["ckpt.snapshot_bytes"] =
        snapshots == 0 ? 0 : snapshot_bytes / static_cast<double>(snapshots);
    result.layers["service.ingest_ns_per_event"] = service_ns / n;
    result.layers["service.frame_decode_ns"] =
        tracer.total_ns(Layer::kFrame) /
        static_cast<double>(tracer.count(Layer::kFrame));
    const double timed_ns = result.timed_s * 1e9;
    result.shares["service"] =
        (service_ns + tracer.total_ns(Layer::kFrame)) / timed_ns;
    result.shares["ckpt"] = tracer.total_ns(Layer::kSnapshot) / timed_ns;
    result.counts["engine.edge_evaluations"] =
        static_cast<double>(metrics.edge_evaluations);
    result.counts["shedding.runs_shed"] =
        static_cast<double>(metrics.runs_shed);
    result.counts["ckpt.snapshots"] = static_cast<double>(snapshots);
    result.counts["ckpt.snapshot_bytes"] = snapshot_bytes;
    return result;
  }

  Env env_;
  cep::SchemaRegistry registry_;
  std::vector<Tenant> tenants_;
  std::string specs_[2];
  std::string texts_[2];
  std::map<std::string, std::vector<std::string>> reference_;
  std::map<std::string, std::vector<std::string>> golden_;
  double snapshot_batch_share_ = 0;
  int pass_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServerCkpt(const Env& env) {
  return std::make_unique<ServerCkpt>(env);
}

}  // namespace perfbench
