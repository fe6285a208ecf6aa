#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/admin_http.h"
#include "util/serialize.h"

namespace phonolid::serve {

namespace {

const std::vector<double> kBatchEdges = {1, 2, 4, 8, 16, 32};
const std::vector<double> kLatencyEdgesMs = {1,   2,   5,   10,  20,  50,
                                             100, 200, 500, 1000, 5000};
// Phase histograms need sub-millisecond resolution: batch_wait and write
// are often tens of microseconds while queue_wait under load reaches the
// full end-to-end latency.
const std::vector<double> kPhaseEdgesMs = {0.1, 0.2, 0.5, 1,   2,    5,
                                           10,  20,  50,  100, 200,  500,
                                           1000, 5000};

struct RegistryMetrics {
  obs::Counter& requests = obs::Metrics::counter("serve.requests");
  obs::Counter& ok = obs::Metrics::counter("serve.responses.ok");
  obs::Counter& bad_frames = obs::Metrics::counter("serve.errors.bad_frame");
  obs::Counter& score_errors = obs::Metrics::counter("serve.errors.score");
  obs::Counter& accept_errors = obs::Metrics::counter("serve.errors.accept");
  obs::Counter& sheds_overloaded =
      obs::Metrics::counter("serve.sheds.overloaded");
  obs::Counter& sheds_deadline = obs::Metrics::counter("serve.sheds.deadline");
  obs::Counter& sheds_shutdown = obs::Metrics::counter("serve.sheds.shutdown");
  obs::Counter& swaps = obs::Metrics::counter("serve.swaps");
  obs::Gauge& queue_depth = obs::Metrics::gauge("serve.queue.depth");
  obs::Histogram& batch_size =
      obs::Metrics::histogram("serve.batch.size", kBatchEdges);
  obs::Histogram& latency_ms =
      obs::Metrics::histogram("serve.latency_ms", kLatencyEdgesMs);
  obs::Histogram& phase_queue_wait =
      obs::Metrics::histogram("serve.phase.queue_wait_ms", kPhaseEdgesMs);
  obs::Histogram& phase_batch_wait =
      obs::Metrics::histogram("serve.phase.batch_wait_ms", kPhaseEdgesMs);
  obs::Histogram& phase_compute =
      obs::Metrics::histogram("serve.phase.compute_ms", kPhaseEdgesMs);
  obs::Histogram& phase_write =
      obs::Metrics::histogram("serve.phase.write_ms", kPhaseEdgesMs);
};

RegistryMetrics& registry() {
  static RegistryMetrics m;
  return m;
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Percentile by bucket upper edge: the edge of the first bucket whose
/// cumulative count reaches q * total (overflow bucket reports the last
/// edge — good enough for gating, which only needs a monotone estimate).
double percentile(const obs::Histogram& h, double q) {
  const std::uint64_t total = h.total_count();
  if (total == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    cum += h.bucket_count(i);
    if (cum >= target && cum > 0) {
      return i < h.edges().size() ? h.edges()[i] : h.edges().back();
    }
  }
  return h.edges().back();
}

obs::Json histogram_json(const obs::Histogram& h) {
  obs::Json j = obs::Json::object();
  j["count"] = h.total_count();
  j["sum"] = h.sum();
  j["mean"] = h.total_count() > 0
                  ? h.sum() / static_cast<double>(h.total_count())
                  : 0.0;
  j["p50"] = percentile(h, 0.50);
  j["p95"] = percentile(h, 0.95);
  j["p99"] = percentile(h, 0.99);
  j["p999"] = percentile(h, 0.999);
  obs::Json edges = obs::Json::array();
  for (double e : h.edges()) edges.push_back(e);
  obs::Json counts = obs::Json::array();
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    counts.push_back(h.bucket_count(i));
  }
  j["edges"] = std::move(edges);
  j["counts"] = std::move(counts);
  return j;
}

}  // namespace

/// One accepted socket.  The reader thread and the batcher both hold a
/// shared_ptr; responses serialize on write_mu so a batch response never
/// interleaves with an inline one.  The last owner closes the fd.
struct ScoreServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send(const Response& response) {
    std::lock_guard<std::mutex> lock(write_mu);
    return write_frame(fd, encode_response(response));
  }

  void shut() noexcept { ::shutdown(fd, SHUT_RDWR); }

  int fd;
  std::mutex write_mu;
};

ScoreServer::ScoreServer(std::shared_ptr<const core::FrozenModel> model,
                         ServerConfig config)
    : model_(std::move(model)),
      config_(config),
      batch_hist_(kBatchEdges),
      latency_hist_(kLatencyEdgesMs),
      phase_queue_wait_hist_(kPhaseEdgesMs),
      phase_batch_wait_hist_(kPhaseEdgesMs),
      phase_compute_hist_(kPhaseEdgesMs),
      phase_write_hist_(kPhaseEdgesMs) {
  if (model_ == nullptr) throw std::invalid_argument("serve: null model");
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.queue_depth == 0) config_.queue_depth = 1;
  if (config_.queue_max_bytes == 0) config_.queue_max_bytes = kMaxFrameBytes;
}

ScoreServer::~ScoreServer() {
  shutdown();
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

int ScoreServer::start() {
  if (started_) throw std::logic_error("serve: start() called twice");
  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error("serve: pipe: " +
                             std::string(std::strerror(errno)));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: socket: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: bind/listen 127.0.0.1:" +
                             std::to_string(config_.port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  started_ = true;
  start_time_ = std::chrono::steady_clock::now();
  accept_alive_.store(true, std::memory_order_release);
  started_flag_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&ScoreServer::accept_loop, this);
  batch_thread_ = std::thread(&ScoreServer::batch_loop, this);
  start_admin();
  return port_;
}

void ScoreServer::start_admin() {
  if (config_.admin_port < 0) return;
  admin_ = std::make_unique<AdminHttpServer>(config_.admin_port);
  admin_->route("/metrics", [] {
    return AdminResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                         obs::prometheus_text()};
  });
  admin_->route("/healthz", [this] {
    const HealthStatus h = health();
    return AdminResponse{h.ready ? 200 : 503, "text/plain; charset=utf-8",
                         h.reason + "\n"};
  });
  admin_->route("/statusz", [this] {
    return AdminResponse{200, "application/json", statusz_json()};
  });
  admin_->route("/flamez", [] {
    if (!obs::Profiler::enabled()) {
      return AdminResponse{
          404, "text/plain; charset=utf-8",
          "profiler off; restart the daemon with PHONOLID_PROFILE=cpu\n"};
    }
    return AdminResponse{200, "text/plain; charset=utf-8",
                         obs::folded_stacks_text()};
  });
  admin_port_ = admin_->start();
}

ScoreServer::HealthStatus ScoreServer::health() const {
  if (!started_flag_.load(std::memory_order_acquire)) {
    return {false, "not started"};
  }
  if (shutdown_requested_.load(std::memory_order_acquire)) {
    return {false, "draining"};
  }
  if (!accept_alive_.load(std::memory_order_acquire)) {
    return {false, "accept loop dead"};
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) return {false, "draining"};
    if (queue_.size() >= config_.queue_depth) {
      return {false, "request queue full"};
    }
    if (queue_bytes_ >= config_.queue_max_bytes) {
      return {false, "request queue byte budget exhausted"};
    }
  }
  return {true, "ok"};
}

void ScoreServer::request_shutdown() noexcept {
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    // The byte is never consumed: poll() is level-triggered, so one write
    // wakes the accept loop and every wait()-er, now and forever.
    [[maybe_unused]] ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
  }
}

void ScoreServer::wait() {
  pollfd pfd{wake_pipe_[0], POLLIN, 0};
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    if (::poll(&pfd, 1, 1000) < 0 && errno != EINTR) break;
  }
  shutdown();
}

void ScoreServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shutdown_done_ || !started_) return;
    shutdown_done_ = true;
  }
  request_shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Reject new scores, then let the batcher answer everything already
  // queued before it exits — drain, not drop.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (batch_thread_.joinable()) batch_thread_.join();
  // Unblock connection readers stuck in read_frame and collect them, plus
  // any exited threads the accept loop had not reaped yet.
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
    threads.swap(conn_threads_);
    for (auto& t : finished_threads_) threads.push_back(std::move(t));
    finished_threads_.clear();
  }
  for (auto& conn : conns) conn->shut();
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  // The admin plane outlives the drain (so /healthz reports 503 while
  // queued requests are being answered) and stops last.
  if (admin_) admin_->shutdown();
}

std::shared_ptr<const core::FrozenModel> ScoreServer::model() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

void ScoreServer::reap_connection_threads() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    done.swap(finished_threads_);
  }
  for (auto& t : done) {
    if (t.joinable()) t.join();
  }
}

void ScoreServer::accept_loop() {
  // Flipped on every exit path so /healthz can report a dead acceptor —
  // a daemon whose accept loop died unrecoverably runs but never answers.
  struct AliveGuard {
    std::atomic<bool>& flag;
    ~AliveGuard() { flag.store(false, std::memory_order_release); }
  } guard{accept_alive_};
  for (;;) {
    reap_connection_threads();
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // shutdown requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM || errno == EAGAIN || errno == EWOULDBLOCK) {
        // Transient resource exhaustion (fd limit, socket buffers).  Dying
        // here would leave a daemon that runs but never answers again, so
        // count it, back off briefly (still watching the wake pipe for
        // shutdown), and retry.
        accept_errors_.fetch_add(1, std::memory_order_relaxed);
        registry().accept_errors.add();
        std::fprintf(stderr, "serve: accept: %s (backing off)\n",
                     std::strerror(errno));
        pollfd wake{wake_pipe_[0], POLLIN, 0};
        ::poll(&wake, 1, 100);
        continue;
      }
      return;  // unrecoverable, e.g. EBADF after the listener closed
    }
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back(&ScoreServer::connection_loop, this,
                               std::move(conn));
  }
}

void ScoreServer::connection_loop(std::shared_ptr<Connection> conn) {
  std::string body;
  bool poisoned = false;
  while (!poisoned) {
    try {
      if (!read_frame(conn->fd, body)) break;  // clean EOF
    } catch (const util::SerializeError& e) {
      // Oversized length prefix or mid-frame truncation: answer once,
      // then stop trusting the stream.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      registry().bad_frames.add();
      Response err;
      err.status = Status::kBadRequest;
      err.text = e.what();
      // The peer's version is unknowable here; v1 frames decode under
      // every client version, so answer with the oldest layout.
      err.wire_version = kMinServeProtocolVersion;
      conn->send(err);
      poisoned = true;
      continue;
    }
    Request request;
    try {
      request = decode_request(body);
    } catch (const util::SerializeError& e) {
      // Bad magic / wrong version / garbage body: the framing may still be
      // intact, but resyncing against an incompatible peer is not worth it.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      registry().bad_frames.add();
      Response err;
      err.status = Status::kBadRequest;
      err.text = e.what();
      err.wire_version = kMinServeProtocolVersion;
      conn->send(err);
      poisoned = true;
      continue;
    }
    handle_request(conn, std::move(request));
  }
  // A poisoned stream is closed outright.  On clean EOF the peer may have
  // half-closed its write side and still be reading — queued responses for
  // this connection go out through the batcher's shared_ptr, so leave the
  // socket open and let the last owner close it.
  if (poisoned) conn->shut();
  // Deregister: drop the registry's shared_ptr (the fd closes as soon as
  // the last queued response for this peer goes out) and park this thread's
  // handle for the accept loop to join.  Without this a long-lived daemon
  // leaks one fd plus one unjoined thread per disconnected client.
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn), conns_.end());
  for (auto it = conn_threads_.begin(); it != conn_threads_.end(); ++it) {
    if (it->get_id() == std::this_thread::get_id()) {
      finished_threads_.push_back(std::move(*it));
      conn_threads_.erase(it);
      break;
    }
  }
}

void ScoreServer::handle_request(const std::shared_ptr<Connection>& conn,
                                 Request request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  registry().requests.add();
  Response response;
  response.request_id = request.request_id;
  response.wire_version = request.wire_version;
  response.trace_id = request.trace_id;
  switch (request.type) {
    case FrameType::kPing:
      respond(conn, std::move(response));
      return;
    case FrameType::kStats:
      response.text = stats_json();
      respond(conn, std::move(response));
      return;
    case FrameType::kSwap: {
      // Unauthenticated protocol: any peer that can open the loopback port
      // may retarget the serving model (see the trust model in server.h),
      // so honour the operator's gate before touching the filesystem.
      if (!config_.allow_swap) {
        response.status = Status::kBadRequest;
        response.text = "model swap is disabled on this server";
        respond(conn, std::move(response));
        return;
      }
      if (!swap_path_allowed(request.text)) {
        response.status = Status::kBadRequest;
        response.text = "swap target is outside the configured swap root";
        respond(conn, std::move(response));
        return;
      }
      try {
        auto next = std::make_shared<const core::FrozenModel>(
            core::FrozenModel::load_bundle(request.text));
        {
          std::lock_guard<std::mutex> lock(model_mu_);
          model_ = std::move(next);
        }
        swaps_.fetch_add(1, std::memory_order_relaxed);
        registry().swaps.add();
        response.text = "swapped to " + request.text;
      } catch (const std::exception& e) {
        response.status = Status::kError;
        response.text = e.what();
      }
      respond(conn, std::move(response));
      return;
    }
    case FrameType::kScore:
      break;
  }
  if (request.samples.empty()) {
    response.status = Status::kBadRequest;
    response.text = "empty PCM payload";
    respond(conn, std::move(response));
    return;
  }
  const auto bad = std::find_if(
      request.samples.begin(), request.samples.end(),
      [](float x) { return !(std::fabs(x) <= kMaxPcmMagnitude); });
  if (bad != request.samples.end()) {
    response.status = Status::kBadRequest;
    response.text = "PCM sample " +
                    std::to_string(bad - request.samples.begin()) +
                    " is not finite or exceeds 2^31 in magnitude";
    respond(conn, std::move(response));
    return;
  }
  // Admission: give the request its trace id (client-supplied wins) and
  // mark the start of the queue_wait phase.
  if (request.trace_id == 0) {
    request.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  response.trace_id = request.trace_id;
  PHONOLID_EVENT("serve_admit", "trace_id",
                 static_cast<std::int64_t>(request.trace_id), "samples",
                 static_cast<std::int64_t>(request.samples.size()));
  const std::size_t request_bytes = request.samples.size() * sizeof(float);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      sheds_shutdown_.fetch_add(1, std::memory_order_relaxed);
      registry().sheds_shutdown.add();
      response.status = Status::kShuttingDown;
      response.text = "server is draining";
    } else if (queue_.size() >= config_.queue_depth ||
               queue_bytes_ + request_bytes > config_.queue_max_bytes) {
      sheds_overloaded_.fetch_add(1, std::memory_order_relaxed);
      registry().sheds_overloaded.add();
      response.status = Status::kOverloaded;
      response.text = queue_.size() >= config_.queue_depth
                          ? "request queue full"
                          : "request queue byte budget exceeded";
    } else {
      queue_bytes_ += request_bytes;
      Pending pending;
      pending.request = std::move(request);
      pending.conn = conn;
      pending.arrival = std::chrono::steady_clock::now();
      queue_.push_back(std::move(pending));
      registry().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
      queue_cv_.notify_one();
      return;  // answered by the batcher
    }
  }
  respond(conn, std::move(response));
}

ScoreServer::Pending ScoreServer::pop_front_locked() {
  Pending p = std::move(queue_.front());
  queue_.pop_front();
  const std::size_t bytes = p.request.samples.size() * sizeof(float);
  queue_bytes_ -= bytes <= queue_bytes_ ? bytes : queue_bytes_;
  p.dequeued = std::chrono::steady_clock::now();  // queue_wait ends here
  return p;
}

bool ScoreServer::swap_path_allowed(const std::string& path) const {
  if (config_.swap_root.empty()) return true;
  std::error_code ec;
  const auto root = std::filesystem::weakly_canonical(config_.swap_root, ec);
  if (ec) return false;
  const auto target = std::filesystem::weakly_canonical(path, ec);
  if (ec) return false;
  const auto rel = target.lexically_relative(root);
  return !rel.empty() && *rel.begin() != "..";
}

void ScoreServer::batch_loop() {
  const auto window = std::chrono::duration<double, std::milli>(
      config_.batch_window_ms);
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      batch.push_back(pop_front_locked());
      // Hold the batch open for co-arrivals; under drain, score whatever
      // is already queued without waiting for traffic that won't come.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(window);
      while (batch.size() < config_.max_batch) {
        while (!queue_.empty() && batch.size() < config_.max_batch) {
          batch.push_back(pop_front_locked());
        }
        if (batch.size() >= config_.max_batch || stopping_) break;
        if (queue_cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          while (!queue_.empty() && batch.size() < config_.max_batch) {
            batch.push_back(pop_front_locked());
          }
          break;
        }
      }
      registry().queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
    process_batch(std::move(batch));
  }
}

void ScoreServer::process_batch(std::vector<Pending> batch) {
  PHONOLID_SPAN("serve_batch");
  // Shed requests whose deadline lapsed while queued — explicitly.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p.request.deadline_ms > 0 &&
        elapsed_ms(p.arrival) >
            static_cast<double>(p.request.deadline_ms)) {
      sheds_deadline_.fetch_add(1, std::memory_order_relaxed);
      registry().sheds_deadline.add();
      Response shed;
      shed.request_id = p.request.request_id;
      shed.status = Status::kDeadlineExceeded;
      shed.text = "deadline exceeded after " +
                  std::to_string(p.request.deadline_ms) + " ms in queue";
      shed.trace_id = p.request.trace_id;
      shed.wire_version = p.request.wire_version;
      respond(p.conn, std::move(shed));
      record_request_phases(p, elapsed_ms(p.dequeued), 0.0, 0.0,
                            batch.size(), "deadline");
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;
  batch_hist_.observe(static_cast<double>(live.size()));
  registry().batch_size.observe(static_cast<double>(live.size()));

  // Snapshot the model once per batch: a concurrent swap flips model_ for
  // the *next* batch, this one finishes on the generation it started with.
  const std::shared_ptr<const core::FrozenModel> model = this->model();
  std::vector<std::span<const float>> utterances;
  utterances.reserve(live.size());
  for (const auto& p : live) utterances.emplace_back(p.request.samples);

  // The compute phase starts here for every request in the batch; what each
  // one spent between its dequeue and this point is batch_wait.
  const auto compute_start = std::chrono::steady_clock::now();
  core::BatchScore scores;
  {
    obs::Span compute_span("serve_compute");
    compute_span.annotate("batch", static_cast<std::int64_t>(live.size()));
    compute_span.annotate(
        "trace_id", static_cast<std::int64_t>(live.front().request.trace_id));
    try {
      scores = model->score_batch(utterances);
    } catch (const std::exception& e) {
      const double compute_ms = elapsed_ms(compute_start);
      score_errors_.fetch_add(static_cast<std::uint64_t>(live.size()),
                              std::memory_order_relaxed);
      registry().score_errors.add(static_cast<std::uint64_t>(live.size()));
      for (auto& p : live) {
        Response err;
        err.request_id = p.request.request_id;
        err.status = Status::kError;
        err.text = e.what();
        err.trace_id = p.request.trace_id;
        err.wire_version = p.request.wire_version;
        const double batch_wait_ms =
            std::chrono::duration<double, std::milli>(compute_start -
                                                      p.dequeued)
                .count();
        const auto write_start = std::chrono::steady_clock::now();
        respond(p.conn, std::move(err));
        record_request_phases(p, batch_wait_ms, compute_ms,
                              elapsed_ms(write_start), live.size(), "error");
      }
      return;
    }
  }
  const double compute_ms = elapsed_ms(compute_start);
  for (std::size_t i = 0; i < live.size(); ++i) {
    Response ok;
    ok.request_id = live[i].request.request_id;
    ok.llr.assign(scores.llr.row(i).begin(), scores.llr.row(i).end());
    ok.best_language = static_cast<std::uint32_t>(scores.best[i]);
    ok.trace_id = live[i].request.trace_id;
    ok.wire_version = live[i].request.wire_version;
    const double ms = elapsed_ms(live[i].arrival);
    latency_hist_.observe(ms);
    registry().latency_ms.observe(ms);
    ok_.fetch_add(1, std::memory_order_relaxed);
    registry().ok.add();
    const double batch_wait_ms =
        std::chrono::duration<double, std::milli>(compute_start -
                                                  live[i].dequeued)
            .count();
    const auto write_start = std::chrono::steady_clock::now();
    respond(live[i].conn, std::move(ok));
    record_request_phases(live[i], batch_wait_ms, compute_ms,
                          elapsed_ms(write_start), live.size(), "ok");
  }
}

void ScoreServer::record_request_phases(const Pending& p, double batch_wait_ms,
                                        double compute_ms, double write_ms,
                                        std::size_t batch_size,
                                        const char* outcome) {
  const double queue_wait_ms =
      std::chrono::duration<double, std::milli>(p.dequeued - p.arrival)
          .count();
  phase_queue_wait_hist_.observe(queue_wait_ms);
  phase_batch_wait_hist_.observe(batch_wait_ms);
  phase_compute_hist_.observe(compute_ms);
  phase_write_hist_.observe(write_ms);
  registry().phase_queue_wait.observe(queue_wait_ms);
  registry().phase_batch_wait.observe(batch_wait_ms);
  registry().phase_compute.observe(compute_ms);
  registry().phase_write.observe(write_ms);
  const double total_ms =
      queue_wait_ms + batch_wait_ms + compute_ms + write_ms;
  PHONOLID_EVENT("serve_reply", "trace_id",
                 static_cast<std::int64_t>(p.request.trace_id), "total_us",
                 static_cast<std::int64_t>(total_ms * 1000.0));
  if (config_.slow_log == 0) return;
  std::lock_guard<std::mutex> lock(slow_mu_);
  SlowRequest entry{p.request.trace_id, p.request.request_id,
                    total_ms,          queue_wait_ms,
                    batch_wait_ms,     compute_ms,
                    write_ms,          batch_size,
                    outcome};
  if (slow_log_.size() < config_.slow_log) {
    slow_log_.push_back(entry);
    return;
  }
  // Ring of the N worst by total latency: evict the fastest entry when the
  // newcomer is slower than it.
  auto fastest = std::min_element(
      slow_log_.begin(), slow_log_.end(),
      [](const SlowRequest& a, const SlowRequest& b) {
        return a.total_ms < b.total_ms;
      });
  if (entry.total_ms > fastest->total_ms) *fastest = entry;
}

void ScoreServer::respond(const std::shared_ptr<Connection>& conn,
                          Response response) {
  // A peer that hung up early just loses its answer; shedding and error
  // accounting already happened at the decision point.
  (void)conn->send(response);
}

obs::Json ScoreServer::stats_doc() const {
  obs::Json j = obs::Json::object();
  j["protocol_version"] = kServeProtocolVersion;
  j["bundle_format"] = core::kBundleFormatVersion;
  j["uptime_s"] =
      started_flag_.load(std::memory_order_acquire)
          ? std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start_time_)
                .count()
          : 0.0;
  {
    const auto model = this->model();
    obs::Json m = obs::Json::object();
    m["scale"] = model->scale();
    m["seed"] = model->seed();
    m["languages"] = model->num_languages();
    m["subsystems"] = model->num_subsystems();
    m["heads"] = model->num_heads();
    j["model"] = std::move(m);
  }
  j["requests"] = requests_.load(std::memory_order_relaxed);
  // Alias of "requests" so the kStats frame stays field-compatible with the
  // Prometheus scrape (phonolid_serve_requests_total) and /statusz.
  j["requests_total"] = requests_.load(std::memory_order_relaxed);
  j["ok"] = ok_.load(std::memory_order_relaxed);
  obs::Json sheds = obs::Json::object();
  sheds["overloaded"] = sheds_overloaded_.load(std::memory_order_relaxed);
  sheds["deadline"] = sheds_deadline_.load(std::memory_order_relaxed);
  sheds["shutdown"] = sheds_shutdown_.load(std::memory_order_relaxed);
  j["sheds"] = std::move(sheds);
  obs::Json errors = obs::Json::object();
  errors["bad_frame"] = bad_frames_.load(std::memory_order_relaxed);
  errors["score"] = score_errors_.load(std::memory_order_relaxed);
  errors["accept"] = accept_errors_.load(std::memory_order_relaxed);
  j["errors"] = std::move(errors);
  j["swaps"] = swaps_.load(std::memory_order_relaxed);
  {
    obs::Json q = obs::Json::object();
    std::lock_guard<std::mutex> lock(queue_mu_);
    q["depth"] = queue_.size();
    q["limit"] = config_.queue_depth;
    q["bytes"] = queue_bytes_;
    q["bytes_limit"] = config_.queue_max_bytes;
    j["queue"] = std::move(q);
  }
  j["batch"] = histogram_json(batch_hist_);
  j["latency_ms"] = histogram_json(latency_hist_);
  {
    obs::Json phases = obs::Json::object();
    phases["queue_wait_ms"] = histogram_json(phase_queue_wait_hist_);
    phases["batch_wait_ms"] = histogram_json(phase_batch_wait_hist_);
    phases["compute_ms"] = histogram_json(phase_compute_hist_);
    phases["write_ms"] = histogram_json(phase_write_hist_);
    j["phases"] = std::move(phases);
  }
  {
    obs::Json slow = obs::Json::array();
    std::vector<SlowRequest> entries;
    {
      std::lock_guard<std::mutex> lock(slow_mu_);
      entries = slow_log_;
    }
    std::sort(entries.begin(), entries.end(),
              [](const SlowRequest& a, const SlowRequest& b) {
                return a.total_ms > b.total_ms;
              });
    for (const SlowRequest& e : entries) {
      obs::Json row = obs::Json::object();
      row["trace_id"] = e.trace_id;
      row["request_id"] = e.request_id;
      row["total_ms"] = e.total_ms;
      row["queue_wait_ms"] = e.queue_wait_ms;
      row["batch_wait_ms"] = e.batch_wait_ms;
      row["compute_ms"] = e.compute_ms;
      row["write_ms"] = e.write_ms;
      row["batch_size"] = e.batch_size;
      row["outcome"] = e.outcome;
      slow.push_back(std::move(row));
    }
    j["slow_requests"] = std::move(slow);
  }
  return j;
}

std::string ScoreServer::stats_json() const { return stats_doc().dump_string(0); }

std::string ScoreServer::statusz_json() const {
  obs::Json j = stats_doc();
  obs::Json admin = obs::Json::object();
  admin["http_version"] = kAdminHttpVersion;
  if (admin_) {
    admin["requests"] = admin_->requests();
    admin["bad_requests"] = admin_->bad_requests();
  }
  j["admin"] = std::move(admin);
#if defined(PHONOLID_BUILD_TYPE)
  j["build_type"] = PHONOLID_BUILD_TYPE;
#endif
  return j.dump_string(0);
}

}  // namespace phonolid::serve
