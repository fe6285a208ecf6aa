// The serving user path: an in-process ScoreServer on an ephemeral loopback
// port, driven through serve::Client and the serve/protocol.h frame
// functions by a pipelining load generator.
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "obs/ledger.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "spans.h"
#include "util/serialize.h"

namespace perfbench {

namespace {

/// Generator lateness (p99 of send time minus due time) beyond which an
/// open-loop pass no longer applied its schedule and is invalid.
constexpr double kMaxLateP99Ms = 10.0;
/// An invalid open-loop pass is run again, up to this many passes in all.
constexpr int kOpenLoopAttempts = 2;
/// A reply slower than this is a failure (and keeps a stalled daemon from
/// hanging the benchmark).
constexpr int kReceiveTimeoutS = 30;
/// Share of a closed loop's send window whose requests latency leaves out.
constexpr double kWarmupShare = 0.1;

struct Inputs {
  std::vector<std::vector<float>> utts;       // pooled test set PCM
  std::vector<std::vector<double>> expected;  // ledger fused LLR per utt
};

Inputs load_inputs(const std::string& work_dir) {
  Inputs in;
  std::ifstream file(work_dir + "/inputs.bin", std::ios::binary);
  if (!file) throw std::runtime_error("missing " + work_dir + "/inputs.bin");
  util::BinaryReader r(file);
  r.expect_magic("PBIN", 1);
  const std::uint64_t n = r.read_u64();
  if (n == 0 || n > (1u << 20)) throw std::runtime_error("bad inputs.bin");
  for (std::uint64_t i = 0; i < n; ++i) in.utts.push_back(r.read_f32_vec());
  // The same check bench_serve --ledger makes: the offline run's ledger,
  // read back from its JSONL file, is the expected answer.
  const obs::DecisionLedger ledger =
      obs::DecisionLedger::read_jsonl_file(work_dir + "/ledger.jsonl");
  in.expected.resize(n);
  for (const obs::LedgerEntry& e : ledger.entries) {
    if (e.utt < n) in.expected[e.utt] = e.fused_llr;
  }
  return in;
}

struct LoadPlan {
  bool open_loop = true;
  /// Open loop: request k scores utts[k], due at due_s[k] after the start,
  /// on connection k % kConnections.  Closed loop: connection c issues
  /// utts[c], utts[c + kConnections], ... keeping `window` in flight.
  std::vector<std::size_t> utts;
  std::vector<double> due_s;
  std::size_t window = 1;
  /// Closed loop: stop sending this long after the start.
  double send_s = std::numeric_limits<double>::infinity();
};

struct Request {
  std::size_t utt = 0;
  double due = 0, send = 0, recv = 0;
  bool answered = false;
  serve::Status status = serve::Status::kError;
  std::vector<float> llr;
  std::int64_t span = -1;  // the request's root span (traced runs)
};

/// Drives one connection: a generator thread sends on schedule (open loop)
/// or whenever a slot frees (closed loop); a receiver thread reads replies.
/// The due time of a closed-loop request is the moment its slot freed.
class ConnectionLoad {
 public:
  ConnectionLoad(int fd, std::size_t index, const LoadPlan& plan,
                   const Inputs& inputs, double start)
      : fd_(fd), index_(index), plan_(plan), inputs_(inputs), start_(start) {
    for (std::size_t i = 0; i < plan.window; ++i) free_slots_.push_back(start);
    reqs_.reserve(plan.utts.size() / kConnections + 1);
  }

  void send_loop() {
    sleep_until(start_);
    for (std::size_t k = index_; k < plan_.utts.size(); k += kConnections) {
      double due = 0;
      if (plan_.open_loop) {
        due = start_ + plan_.due_s[k];
        sleep_until(due);
        std::lock_guard<std::mutex> lock(mu_);
        if (broken_) break;
      } else {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !free_slots_.empty() || broken_; });
        if (broken_) break;
        due = free_slots_.front();
        free_slots_.pop_front();
      }
      if (!plan_.open_loop && now_s() >= start_ + plan_.send_s) break;
      if (!send_one(plan_.utts[k], due)) break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      sender_done_ = true;
    }
    cv_.notify_all();
  }

  void receive_loop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return received_ < reqs_.size() || sender_done_; });
        if (received_ == reqs_.size()) break;  // sender done, all answered
      }
      std::string body;
      bool got = false;
      try {
        got = serve::read_frame(fd_, body);
      } catch (const std::exception&) {
        got = false;
      }
      const double t = now_s();
      if (!got) {
        mark_broken();
        break;
      }
      Span decode_span("serve.protocol.decode_response");
      serve::Response resp;
      try {
        resp = serve::decode_response(body);
      } catch (const std::exception&) {
        mark_broken();
        break;
      }
      decode_span.end();
      std::int64_t root = -1;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (resp.request_id == 0 || resp.request_id > reqs_.size()) {
          // A reply to no request of ours: stop reading this connection.
          broken_ = true;
          resp.request_id = 0;
        } else {
          Request& r = reqs_[resp.request_id - 1];
          r.recv = t;
          r.answered = true;
          r.status = resp.status;
          r.llr = std::move(resp.llr);
          root = r.span;
          ++received_;
          free_slots_.push_back(t);
        }
      }
      cv_.notify_all();
      if (root >= 0) SpanLog::close(root);
      if (resp.request_id == 0) break;
    }
  }

  std::vector<Request> take() { return std::move(reqs_); }

 private:
  static void sleep_until(double t) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(t))));
  }

  bool send_one(std::size_t utt, double due) {
    std::size_t id = 0;
    std::int64_t root = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Request r;
      r.utt = utt;
      r.due = due;
      r.send = now_s();
      id = reqs_.size() + 1;
      // The request's root span closes on the receiver thread.
      if (SpanLog::enabled()) root = SpanLog::open("serve.request", id, -1);
      r.span = root;
      reqs_.push_back(std::move(r));
    }
    serve::Request req;
    req.type = serve::FrameType::kScore;
    req.request_id = id;
    req.trace_id = (static_cast<std::uint64_t>(index_) << 32) | id;
    req.samples = inputs_.utts[utt];
    Span encode_span("serve.protocol.encode_request", id, root);
    const std::string body = serve::encode_request(req);
    encode_span.end();
    Span write_span("serve.protocol.write_frame", id, root);
    bool ok = false;
    try {
      ok = serve::write_frame(fd_, body);
    } catch (const std::exception&) {
      ok = false;
    }
    write_span.end();
    cv_.notify_all();  // the receiver waits for something to read
    if (!ok) mark_broken();
    return ok;
  }

  void mark_broken() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      broken_ = true;
    }
    cv_.notify_all();
  }

  int fd_;
  std::size_t index_;
  const LoadPlan& plan_;
  const Inputs& inputs_;
  double start_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Request> reqs_;     // guarded by mu_ while the run is live
  std::deque<double> free_slots_;  // closed loop: when each slot freed
  std::size_t received_ = 0;
  bool sender_done_ = false;
  bool broken_ = false;
};

struct LoadResult {
  std::vector<Request> requests;
  double start = 0;
  double cpu_s = 0;
};

LoadResult run_load(std::vector<serve::Client>& clients, const LoadPlan& plan,
                    const Inputs& inputs) {
  LoadResult result;
  // A short lead so every generator thread is parked before the first due
  // time.
  result.start = now_s() + 0.01;
  const double cpu0 = process_cpu_s();
  std::vector<std::unique_ptr<ConnectionLoad>> loads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    loads.push_back(std::make_unique<ConnectionLoad>(
        clients[c].fd(), c, plan, inputs, result.start));
  }
  {
    std::vector<std::jthread> threads;
    for (auto& d : loads) {
      threads.emplace_back([&d] { d->send_loop(); });
      threads.emplace_back([&d] { d->receive_loop(); });
    }
  }
  result.cpu_s = process_cpu_s() - cpu0;
  for (auto& d : loads) {
    for (Request& r : d->take()) result.requests.push_back(std::move(r));
  }
  return result;
}

/// Client-side view of one load pass, plus its output checks.
struct LoadSummary {
  std::size_t attempted = 0, ok = 0;
  std::vector<double> latency_ms;  // from due time, OK replies
  /// From send time, every OK reply: the requests the daemon's stats
  /// deltas cover, the start-up burst of a closed loop included.
  std::vector<double> wire_ms;
  std::vector<double> late_ms;     // send time minus due time
  double throughput_rps = 0;
  double cpu_ms_per_request = 0;
};

/// `window_s` is the send window of a closed loop: throughput counts the
/// completions inside it, and latency leaves out the requests sent in its
/// first kWarmupShare.  Infinite (open loop) keeps every latency and counts
/// every completion over the time the last one took.
LoadSummary summarize(const LoadResult& load, const Inputs& inputs,
                      double window_s, Report& report) {
  LoadSummary s;
  std::size_t ok_in_window = 0;
  double last_recv = load.start;
  const double warmup_end =
      std::isfinite(window_s) ? load.start + kWarmupShare * window_s : load.start;
  std::size_t llr_mismatch = 0, repeat_mismatch = 0;
  std::map<std::size_t, const std::vector<float>*> first;
  for (const Request& r : load.requests) {
    ++s.attempted;
    s.late_ms.push_back(1e3 * (r.send - r.due));
    if (!r.answered || r.status != serve::Status::kOk) continue;
    ++s.ok;
    last_recv = std::max(last_recv, r.recv);
    if (r.recv <= load.start + window_s) ++ok_in_window;
    // A closed loop's first window of requests lands at once; its latencies
    // describe the start-up burst, not the steady state.
    if (r.send >= warmup_end) s.latency_ms.push_back(1e3 * (r.recv - r.due));
    s.wire_ms.push_back(1e3 * (r.recv - r.send));
    const std::vector<double>& want = inputs.expected.at(r.utt);
    bool equal = want.size() == r.llr.size();
    for (std::size_t i = 0; equal && i < want.size(); ++i) {
      equal = static_cast<double>(r.llr[i]) == want[i];
    }
    if (!equal) ++llr_mismatch;
    const auto [it, inserted] = first.emplace(r.utt, &r.llr);
    if (!inserted && (it->second->size() != r.llr.size() ||
                      std::memcmp(it->second->data(), r.llr.data(),
                                  r.llr.size() * sizeof(float)) != 0)) {
      ++repeat_mismatch;
    }
  }
  report.check(llr_mismatch == 0,
               "daemon LLRs are bit-identical to the offline ledger");
  report.check(repeat_mismatch == 0,
               "repeats of one utterance return identical bits");
  report.check(s.ok > 0, "at least one request succeeded");
  report.count(s.attempted, s.attempted - s.ok);
  s.cpu_ms_per_request =
      s.ok > 0 ? 1e3 * load.cpu_s / static_cast<double>(s.ok) : 0.0;
  s.throughput_rps =
      std::isfinite(window_s)
          ? static_cast<double>(ok_in_window) / window_s
          : static_cast<double>(s.ok) / std::max(1e-9, last_recv - load.start);
  return s;
}

double json_at(const obs::Json& doc, const std::vector<std::string>& path) {
  const obs::Json* node = &doc;
  for (const std::string& key : path) {
    node = node->find(key);
    if (node == nullptr) throw std::runtime_error("kStats lacks " + key);
  }
  return node->as_double();
}

/// The four daemon phase means, batch size mean and sheds over a window,
/// from two kStats snapshots: exact sums and counts, never bucket edges.
struct ServeWindowStats {
  double queue_wait_ms = 0, batch_wait_ms = 0, compute_ms = 0, write_ms = 0;
  double batch_size = 0;
  double sheds = 0;
};

ServeWindowStats stats_delta(const obs::Json& before, const obs::Json& after) {
  auto mean = [&](std::vector<std::string> where) {
    where.push_back("count");
    const double n = json_at(after, where) - json_at(before, where);
    where.back() = "sum";
    return n > 0 ? (json_at(after, where) - json_at(before, where)) / n : 0.0;
  };
  ServeWindowStats w;
  w.queue_wait_ms = mean({"phases", "queue_wait_ms"});
  w.batch_wait_ms = mean({"phases", "batch_wait_ms"});
  w.compute_ms = mean({"phases", "compute_ms"});
  w.write_ms = mean({"phases", "write_ms"});
  w.batch_size = mean({"batch"});
  for (const char* kind : {"overloaded", "deadline", "shutdown"}) {
    w.sheds += json_at(after, {"sheds", kind}) - json_at(before, {"sheds", kind});
  }
  return w;
}

obs::Json server_stats(serve::Client& control) {
  return obs::Json::parse(control.stats().text);
}

double mean_of(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void report_serve_layers(const LoadSummary& s, const ServeWindowStats& w,
                         Report& report) {
  report.metric("serve.queue_wait_ms_mean", w.queue_wait_ms, "ms");
  report.metric("serve.batch_wait_ms_mean", w.batch_wait_ms, "ms");
  report.metric("serve.compute_ms_mean", w.compute_ms, "ms");
  report.metric("serve.write_ms_mean", w.write_ms, "ms");
  report.metric("serve.batch_size_mean", w.batch_size, "count");
  report.metric("serve.sheds", w.sheds, "count");
  report.metric("serve.unaccounted_ms_mean",
                mean_of(s.wire_ms) - (w.queue_wait_ms + w.batch_wait_ms +
                                      w.compute_ms + w.write_ms),
                "ms");
  report.metric("loadgen.late_p99_ms", order_statistic(s.late_ms, 0.99), "ms");
}

void report_load(const LoadSummary& s, Report& report) {
  report.metric("latency_p50_ms", order_statistic(s.latency_ms, 0.50), "ms");
  report.metric("latency_p99_ms", order_statistic(s.latency_ms, 0.99), "ms");
  report.metric("throughput_rps", s.throughput_rps, "1/s");
  report.metric("cpu_ms_per_request", s.cpu_ms_per_request, "ms");
  obs::Json samples = obs::Json::object();
  samples["requests"] = s.attempted;
  samples["ok"] = s.ok;
  samples["latency_samples"] = s.latency_ms.size();
  samples["beyond_p99"] = samples_beyond(s.latency_ms.size(), 0.99);
  samples["late_p99_ms"] = order_statistic(s.late_ms, 0.99);
  report.info("samples", std::move(samples));
}

/// In-process daemon plus its connected clients.
struct Daemon {
  std::unique_ptr<serve::ScoreServer> server;
  std::vector<serve::Client> clients;
  serve::Client control;

  void start(std::shared_ptr<const core::FrozenModel> model) {
    server = std::make_unique<serve::ScoreServer>(std::move(model));
    const int port = server->start();
    clients.resize(kConnections);
    for (serve::Client& c : clients) {
      c.connect("127.0.0.1", port);
      timeval tv{kReceiveTimeoutS, 0};
      ::setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      if (c.ping().status != serve::Status::kOk) {
        throw std::runtime_error("daemon did not answer a ping");
      }
    }
    control.connect("127.0.0.1", port);
  }

  void stop() {
    clients.clear();
    control.close();
    if (server) server->shutdown();
    server.reset();
  }

  ~Daemon() { stop(); }
};

/// One measured load pass: the client view plus the daemon's own phase
/// accounting over the same window.
struct Pass {
  LoadSummary summary;
  ServeWindowStats stats;
};

Pass measure(Daemon& daemon, const LoadPlan& plan, const Inputs& inputs,
             Report& report) {
  const double window_s =
      plan.open_loop ? std::numeric_limits<double>::infinity() : plan.send_s;
  const obs::Json before = server_stats(daemon.control);
  const LoadResult load = run_load(daemon.clients, plan, inputs);
  const obs::Json after = server_stats(daemon.control);
  Pass pass;
  pass.summary = summarize(load, inputs, window_s, report);
  pass.stats = stats_delta(before, after);
  return pass;
}

/// Why an open-loop pass does not measure what it claims, or "" when it
/// does: the generator kept its schedule and the p99 has at least 10
/// samples beyond it.
std::string open_loop_invalid(const LoadSummary& s) {
  const double late_p99 = order_statistic(s.late_ms, 0.99);
  if (late_p99 > kMaxLateP99Ms) {
    return "generator fell behind its schedule (late p99 " +
           std::to_string(late_p99) + " ms)";
  }
  if (samples_beyond(s.latency_ms.size(), 0.99) < 10) {
    return "fewer than 10 samples beyond p99";
  }
  return "";
}

/// Runs an open-loop plan until a pass is valid, at most kOpenLoopAttempts
/// passes, and records the outcome; the last pass is the measurement.
Pass measure_open_loop(Daemon& daemon, const LoadPlan& plan,
                       const Inputs& inputs, Report& report) {
  Pass pass;
  std::string invalid;
  int attempts = 0;
  do {
    pass = measure(daemon, plan, inputs, report);
    invalid = open_loop_invalid(pass.summary);
    ++attempts;
  } while (!invalid.empty() && attempts < kOpenLoopAttempts);
  report.info("open_loop_passes", attempts);
  report.info("valid", invalid.empty());
  if (!invalid.empty()) report.info("invalid_reason", invalid);
  return pass;
}

/// The request stream of a workload seed.  Utterances come in shuffled
/// passes over the pooled test set, so every one is scored early.  Open
/// loop: a Poisson process at kOpenLoopRate conditioned on exactly
/// kOpenLoopRate * `seconds` arrivals in `seconds`, so that every seed offers
/// the same load.  Closed loop: more requests than the daemon can answer in
/// `seconds`; sending stops then.
LoadPlan make_plan(bool open_loop, std::uint64_t seed, double seconds,
                   std::size_t num_utts) {
  LoadPlan plan;
  plan.open_loop = open_loop;
  std::size_t n = 0;
  if (open_loop) {
    // Cumulative exponential gaps, scaled so that the gap after the last
    // arrival ends at `seconds`: n uniform order statistics on [0, seconds].
    Rng arrivals(seed ^ 0x9e3779b97f4a7c15ull);
    n = static_cast<std::size_t>(std::ceil(kOpenLoopRate * seconds));
    double t = 0;
    for (std::size_t k = 0; k <= n; ++k) {
      t += -std::log(1.0 - arrivals.uniform());
      plan.due_s.push_back(t);
    }
    for (double& due : plan.due_s) due *= seconds / t;
    plan.due_s.pop_back();
  } else {
    plan.window = kBacklogWindow;
    plan.send_s = seconds;
    n = static_cast<std::size_t>(std::ceil(seconds * 1000.0));
  }
  Rng order(seed ^ 0x5851f42d4c957f2dull);
  while (plan.utts.size() < n) {
    const std::size_t base = plan.utts.size();
    for (std::size_t u = 0; u < num_utts; ++u) plan.utts.push_back(u);
    for (std::size_t i = num_utts; i > 1; --i) {
      std::swap(plan.utts[base + i - 1], plan.utts[base + order.below(i)]);
    }
  }
  plan.utts.resize(n);
  return plan;
}

/// The first `seconds` of a plan (a traced run's half-length passes).
LoadPlan head_of(LoadPlan plan, double seconds) {
  if (plan.open_loop) {
    const auto n = static_cast<std::size_t>(
        std::lower_bound(plan.due_s.begin(), plan.due_s.end(), seconds) -
        plan.due_s.begin());
    plan.due_s.resize(n);
    plan.utts.resize(n);
  } else {
    plan.send_s = std::min(plan.send_s, seconds);
  }
  return plan;
}

std::uint64_t hash_inputs(const LoadPlan& plan, const Inputs& inputs) {
  std::uint64_t h = fnv1a(plan.utts.data(),
                          plan.utts.size() * sizeof(std::size_t));
  h = fnv1a(plan.due_s.data(), plan.due_s.size() * sizeof(double), h);
  for (const auto& u : inputs.utts) {
    h = fnv1a(u.data(), u.size() * sizeof(float), h);
  }
  return h;
}

}  // namespace

void save_test_inputs(const std::string& path, const core::Experiment& exp) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  util::BinaryWriter w(out);
  w.write_magic("PBIN", 1);
  w.write_u64(exp.corpus().test().size());
  for (const corpus::Utterance& u : exp.corpus().test()) {
    w.write_f32_vec(u.samples);
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

void run_workload(const Options& opt, Report& report) {
  const bool offline = opt.workload == "offline";
  const bool open_loop = opt.workload != "serve_backlog";
  const Inputs inputs = load_inputs(opt.work_dir);

  // The preparation step trained the model through the offline path (cold,
  // then warm, in cycles); its times are every workload's offline numbers.
  std::ifstream prep_file(opt.work_dir + "/prep.json");
  std::ostringstream prep_text;
  prep_text << prep_file.rdbuf();
  const obs::Json prep = obs::Json::parse(prep_text.str());
  auto prep_number = [&](const char* key) {
    const obs::Json* v = prep.find(key);
    if (v == nullptr) throw std::runtime_error(std::string("prep.json lacks ") + key);
    return v->as_double();
  };
  report.check(prep.find("ledgers_equal")->as_bool(),
               "cold and warm ledgers are byte-identical");
  report.check(prep.find("ledgers_complete")->as_bool(),
               "ledger holds a fused LLR for every test utterance");
  report.count(static_cast<std::uint64_t>(prep_number("runs")),
               static_cast<std::uint64_t>(prep_number("failed_runs")));

  // Set-up, several times.  Serve: bundle load + server start + connect,
  // and the last daemon serves the run.  Offline: starting the program's
  // process and thread pool; the daemon then starts once, untimed.
  const std::string bundle = opt.work_dir + "/bundle";
  Daemon daemon;
  std::shared_ptr<const core::FrozenModel> model;
  auto start_daemon = [&] {
    daemon.stop();
    model = std::make_shared<const core::FrozenModel>(
        core::FrozenModel::load_bundle(bundle));
    daemon.start(model);
  };
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    if (offline) {
      start_program_process(opt.self);
    } else {
      start_daemon();
    }
    setups.push_back(now_s() - t0);
  }
  if (offline) start_daemon();

  const LoadPlan full = make_plan(open_loop, opt.seed, opt.seconds,
                                  inputs.utts.size());
  report.info("input_hash", hex64(hash_inputs(full, inputs)));

  if (!opt.trace) {
    const Pass pass = open_loop ? measure_open_loop(daemon, full, inputs, report)
                                : measure(daemon, full, inputs, report);
    daemon.stop();
    report.metric("setup_s", median(setups), "s");
    // Offline: the peak of the process that trained.
    report.metric("peak_rss_mb",
                  offline ? prep_number("peak_rss_mb") : peak_rss_mb(), "MB");
    for (const char* key : {"cold_run_s", "cold_cpu_s", "warm_run_s"}) {
      report.metric(key, prep_number(key), "s");
    }
    report_load(pass.summary, report);
    return;
  }

  // A traced run measures the first half of the plan traced; a serve
  // workload measures it untraced first, and the difference in its
  // headline number is the tracing overhead.
  const LoadPlan plan = head_of(full, opt.seconds / 2);
  Pass untraced;
  if (!offline) untraced = measure(daemon, plan, inputs, report);
  SpanLog::enable(true);
  const Pass traced = measure(daemon, plan, inputs, report);
  daemon.stop();
  report_serve_layers(traced.summary, traced.stats, report);

  // The layer decomposition rebuilds the experiment warm from the store the
  // preparation step trained into.  Offline, the tracing overhead is that
  // of the warm rebuild itself.
  const std::string store = opt.work_dir + "/store";
  std::unique_ptr<OfflineRun> run;
  double overhead_pct = 0;
  if (offline) {
    overhead_pct = offline_tracing_overhead_pct(store, &run);
  } else {
    run = std::make_unique<OfflineRun>(
        run_offline_chain(experiment_config(kModelSeed, store)));
    const auto headline = [&](const LoadSummary& s) {
      return open_loop ? order_statistic(s.latency_ms, 0.5)
                       : 1.0 / s.throughput_rps;
    };
    const double a = headline(untraced.summary);
    overhead_pct = 100.0 * (headline(traced.summary) - a) / a;
  }
  report.metric("trace.overhead_pct", overhead_pct, "%");
  TracedModel traced_model;
  traced_model.run = run.get();
  traced_model.frozen = model.get();
  traced_model.store_dir = store;
  run_layer_decomposition(traced_model, opt, report);
}

}  // namespace perfbench
