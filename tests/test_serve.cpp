// Serve daemon tests over an in-memory micro model: bundle round-trip,
// socket scoring bit-identity, micro-batching, warm swap, explicit
// load-shedding, and the malformed-frame robustness contract (protocol.h).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "backend/fusion.h"
#include "core/frozen_model.h"
#include "core/subsystem.h"
#include "obs/json.h"
#include "serve/admin_http.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "svm/vsm.h"

namespace phonolid::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

corpus::CorpusConfig micro_corpus_config() {
  corpus::CorpusConfig cfg =
      corpus::CorpusConfig::preset(util::Scale::kQuick, 31);
  cfg.family.num_languages = 2;
  cfg.num_universal_phones = 14;
  cfg.train_utts_per_language = 4;
  cfg.dev_utts_per_language_per_tier = 1;
  cfg.test_utts_per_language_per_tier = 2;
  cfg.num_native_languages = 1;
  cfg.am_train_utts_per_native = 8;
  cfg.am_train_seconds = 1.5;
  return cfg;
}

core::FrontEndSpec micro_spec() {
  core::FrontEndSpec spec;
  spec.name = "micro";
  spec.family = core::ModelFamily::kGmmHmm;
  spec.num_phones = 6;
  spec.native_language = 0;
  spec.gmm_components = 2;
  spec.seed_salt = 0x99;
  return spec;
}

/// One shared micro corpus + frozen model for the whole suite: a single GMM
/// subsystem, its VSM head trained on the train supervectors, and fusion
/// fitted on the dev scores — the same chain `phonolid freeze` runs, minus
/// DBA (irrelevant to transport-level behaviour).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new corpus::LreCorpus(
        corpus::LreCorpus::build(micro_corpus_config()));
    model_ = new std::shared_ptr<const core::FrozenModel>(build_model());
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  static std::shared_ptr<const core::FrozenModel> build_model() {
    auto sub = core::Subsystem::build(*corpus_, micro_spec(), 7);
    const std::size_t num_classes = corpus_->num_target_languages();
    std::vector<std::int32_t> train_labels;
    for (const auto& u : corpus_->vsm_train()) {
      train_labels.push_back(u.language);
    }
    std::vector<std::int32_t> dev_labels;
    for (const auto& u : corpus_->dev()) dev_labels.push_back(u.language);

    const auto train_svs = sub->take_train_supervectors();
    svm::VsmTrainConfig vsm_cfg;
    svm::VsmModel vsm = svm::VsmModel::train(
        train_svs, train_labels, num_classes, sub->supervector_dim(), vsm_cfg);

    const auto dev_svs = sub->process_all(corpus_->dev());
    const util::Matrix dev_scores = vsm.score_all(dev_svs);
    backend::ScoreFusion fusion;
    fusion.fit({dev_scores}, dev_labels, num_classes);

    std::vector<std::string> languages;
    for (const auto& spec : corpus_->target_languages()) {
      languages.push_back(spec.name());
    }
    std::vector<core::FrozenHead> heads;
    heads.push_back(core::FrozenHead{0, std::move(vsm)});
    std::vector<std::unique_ptr<core::Subsystem>> subs;
    subs.push_back(std::move(sub));
    return std::make_shared<core::FrozenModel>(
        "quick", corpus_->config().seed, corpus_->config().sample_rate,
        std::move(languages), std::move(subs), std::move(heads),
        std::move(fusion));
  }

  [[nodiscard]] static std::span<const float> test_utt(std::size_t i) {
    return corpus_->test().at(i).samples;
  }

  static corpus::LreCorpus* corpus_;
  static std::shared_ptr<const core::FrozenModel>* model_;
};

corpus::LreCorpus* ServeTest::corpus_ = nullptr;
std::shared_ptr<const core::FrozenModel>* ServeTest::model_ = nullptr;

/// RAII server on an ephemeral port; shutdown on scope exit.
struct TestServer {
  explicit TestServer(std::shared_ptr<const core::FrozenModel> model,
                      ServerConfig config = {})
      : server(std::move(model), config) {
    port = server.start();
  }
  ~TestServer() { server.shutdown(); }
  ScoreServer server;
  int port = 0;
};

Client connect_to(const TestServer& ts) {
  Client c;
  c.connect("127.0.0.1", ts.port);
  return c;
}

double stat_at(const obs::Json& stats,
               std::initializer_list<const char*> path) {
  const obs::Json* node = &stats;
  for (const char* key : path) {
    node = node->find(key);
    if (node == nullptr) ADD_FAILURE() << "missing stats key " << key;
    if (node == nullptr) return -1.0;
  }
  return node->as_double();
}

/// The daemon records a request's phases right after sending its reply, so a
/// stats read issued the moment the reply lands can miss the last request's
/// phases.  Re-read until `requests` requests have all four phases recorded.
obs::Json stats_after_phases(Client& c, double requests) {
  obs::Json stats = obs::Json::parse(c.stats().text);
  for (int i = 0; i < 400 && stat_at(stats, {"phases", "write_ms", "count"}) <
                                 requests;
       ++i) {
    std::this_thread::sleep_for(5ms);
    stats = obs::Json::parse(c.stats().text);
  }
  return stats;
}

TEST_F(ServeTest, BundleRoundTripScoresBitIdentical) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_bundle_rt";
  fs::remove_all(dir);
  (*model_)->save_bundle(dir.string());
  const core::FrozenModel loaded = core::FrozenModel::load_bundle(dir.string());
  EXPECT_EQ(loaded.num_subsystems(), (*model_)->num_subsystems());
  EXPECT_EQ(loaded.num_heads(), (*model_)->num_heads());
  EXPECT_EQ(loaded.languages(), (*model_)->languages());

  std::vector<std::span<const float>> utts;
  for (const auto& u : corpus_->test()) utts.emplace_back(u.samples);
  const core::BatchScore a = (*model_)->score_batch(utts);
  const core::BatchScore b = loaded.score_batch(utts);
  ASSERT_EQ(a.llr.rows(), b.llr.rows());
  ASSERT_EQ(a.llr.cols(), b.llr.cols());
  for (std::size_t i = 0; i < a.llr.rows(); ++i) {
    for (std::size_t k = 0; k < a.llr.cols(); ++k) {
      EXPECT_EQ(a.llr(i, k), b.llr(i, k)) << "utt " << i << " class " << k;
    }
  }
  EXPECT_EQ(a.best, b.best);
  fs::remove_all(dir);
}

TEST_F(ServeTest, SocketScoresMatchOfflineBitForBit) {
  std::vector<std::span<const float>> utts;
  for (const auto& u : corpus_->test()) utts.emplace_back(u.samples);
  const core::BatchScore offline = (*model_)->score_batch(utts);

  TestServer ts(*model_);
  Client c = connect_to(ts);
  for (std::size_t i = 0; i < utts.size(); ++i) {
    const Response r = c.score(utts[i]);
    ASSERT_EQ(r.status, Status::kOk);
    ASSERT_EQ(r.llr.size(), offline.llr.cols());
    for (std::size_t k = 0; k < r.llr.size(); ++k) {
      EXPECT_EQ(r.llr[k], offline.llr(i, k)) << "utt " << i << " class " << k;
    }
    EXPECT_EQ(r.best_language, offline.best[i]);
  }
}

TEST_F(ServeTest, PingEchoesAndStatsParse) {
  TestServer ts(*model_);
  Client c = connect_to(ts);
  const Response pong = c.ping();
  EXPECT_EQ(pong.status, Status::kOk);

  const Response st = c.stats();
  ASSERT_EQ(st.status, Status::kOk);
  const obs::Json stats = obs::Json::parse(st.text);
  EXPECT_EQ(stat_at(stats, {"protocol_version"}),
            static_cast<double>(kServeProtocolVersion));
  EXPECT_EQ(stat_at(stats, {"bundle_format"}),
            static_cast<double>(core::kBundleFormatVersion));
  EXPECT_EQ(stat_at(stats, {"model", "languages"}), 2.0);
  // The ping and this stats call are both counted.
  EXPECT_GE(stat_at(stats, {"requests"}), 2.0);
}

TEST_F(ServeTest, SequentialPingsRoundTripWithoutNagleStalls) {
  // A frame sent as two writes (length prefix, then body) leaves the body
  // queued behind Nagle until the peer's delayed ACK, about 40 ms a frame on
  // loopback.  One write per frame makes a ping round trip sub-millisecond.
  TestServer ts(*model_);
  Client c = connect_to(ts);
  std::vector<double> round_trip_ms;
  for (int i = 0; i < 30; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(c.ping().status, Status::kOk);
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  }
  std::nth_element(round_trip_ms.begin(), round_trip_ms.begin() + 15,
                   round_trip_ms.end());
  EXPECT_LT(round_trip_ms[15], 10.0);
}

TEST_F(ServeTest, MicroBatchingCoalescesConcurrentRequests) {
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.batch_window_ms = 250.0;
  TestServer ts(*model_, cfg);

  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client c = connect_to(ts);
      if (c.score(test_utt(0)).status == Status::kOk) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);

  // All 8 scores went through fewer than 8 batches: the window coalesced
  // co-arrivals (the batcher waits batch_window_ms after the first pop, far
  // longer than the spread between 8 simultaneous sends).
  Client admin = connect_to(ts);
  const obs::Json stats = obs::Json::parse(admin.stats().text);
  EXPECT_EQ(stat_at(stats, {"batch", "sum"}), static_cast<double>(kClients));
  EXPECT_LT(stat_at(stats, {"batch", "count"}), static_cast<double>(kClients));
}

TEST_F(ServeTest, WarmSwapFailsZeroInFlightRequests) {
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_swap_bundle";
  fs::remove_all(dir);
  (*model_)->save_bundle(dir.string());

  TestServer ts(*model_);
  Client ref_client = connect_to(ts);
  const Response ref = ref_client.score(test_utt(0));
  ASSERT_EQ(ref.status, Status::kOk);

  // Clients hammer the daemon while swaps flip the model underneath them.
  // The swapped-in bundle is a copy of the serving model, so every response
  // must stay kOk with byte-identical LLRs across every generation.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      Client c = connect_to(ts);
      while (!stop.load(std::memory_order_relaxed)) {
        const Response r = c.score(test_utt(0));
        sent.fetch_add(1);
        if (r.status != Status::kOk || r.llr != ref.llr) failed.fetch_add(1);
      }
    });
  }
  Client admin = connect_to(ts);
  constexpr int kSwaps = 3;
  for (int s = 0; s < kSwaps; ++s) {
    std::this_thread::sleep_for(25ms);
    ASSERT_EQ(admin.swap(dir.string()).status, Status::kOk);
  }
  std::this_thread::sleep_for(25ms);
  stop.store(true);
  for (auto& t : workers) t.join();

  EXPECT_GT(sent.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  const obs::Json stats = obs::Json::parse(admin.stats().text);
  EXPECT_EQ(stat_at(stats, {"swaps"}), static_cast<double>(kSwaps));
  fs::remove_all(dir);
}

TEST_F(ServeTest, SwapDisabledIsRejectedAndKeepsServing) {
  ServerConfig cfg;
  cfg.allow_swap = false;
  TestServer ts(*model_, cfg);
  Client c = connect_to(ts);
  const Response r = c.swap("/any/path");
  EXPECT_EQ(r.status, Status::kBadRequest);
  EXPECT_FALSE(r.text.empty());
  EXPECT_EQ(c.score(test_utt(0)).status, Status::kOk);
  const obs::Json stats = obs::Json::parse(c.stats().text);
  EXPECT_EQ(stat_at(stats, {"swaps"}), 0.0);
}

TEST_F(ServeTest, SwapRootConfinesSwapTargets) {
  const fs::path root = fs::path(::testing::TempDir()) / "serve_swap_root";
  const fs::path inside = root / "bundle";
  const fs::path outside =
      fs::path(::testing::TempDir()) / "serve_swap_outside";
  fs::remove_all(root);
  fs::remove_all(outside);
  (*model_)->save_bundle(inside.string());
  (*model_)->save_bundle(outside.string());

  ServerConfig cfg;
  cfg.swap_root = root.string();
  TestServer ts(*model_, cfg);
  Client c = connect_to(ts);
  EXPECT_EQ(c.swap(outside.string()).status, Status::kBadRequest);
  // Traversal back out of the root is rejected too.
  EXPECT_EQ(c.swap((root / ".." / "serve_swap_outside").string()).status,
            Status::kBadRequest);
  EXPECT_EQ(c.swap(inside.string()).status, Status::kOk);
  const obs::Json stats = obs::Json::parse(c.stats().text);
  EXPECT_EQ(stat_at(stats, {"swaps"}), 1.0);
  fs::remove_all(root);
  fs::remove_all(outside);
}

TEST_F(ServeTest, SwapToMissingBundleIsErrorAndKeepsServing) {
  TestServer ts(*model_);
  Client c = connect_to(ts);
  const Response bad = c.swap("/nonexistent/bundle/dir");
  EXPECT_EQ(bad.status, Status::kError);
  EXPECT_FALSE(bad.text.empty());
  // The old model keeps serving.
  EXPECT_EQ(c.score(test_utt(0)).status, Status::kOk);
}

TEST_F(ServeTest, FullQueueShedsWithExplicitOverloaded) {
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window_ms = 300.0;
  cfg.queue_depth = 1;
  TestServer ts(*model_, cfg);

  constexpr int kClients = 16;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client c = connect_to(ts);
      const Response r = c.score(test_utt(0));
      if (r.status == Status::kOk) {
        ok.fetch_add(1);
      } else if (r.status == Status::kOverloaded) {
        overloaded.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every request got an explicit answer; overload shed at least one and
  // nothing was silently dropped or failed some other way.
  EXPECT_EQ(ok.load() + overloaded.load(), kClients);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(other.load(), 0);
  Client admin = connect_to(ts);
  const obs::Json stats = obs::Json::parse(admin.stats().text);
  EXPECT_EQ(stat_at(stats, {"sheds", "overloaded"}),
            static_cast<double>(overloaded.load()));
}

TEST_F(ServeTest, ByteBudgetShedsWithExplicitOverloaded) {
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window_ms = 300.0;
  cfg.queue_depth = 256;  // count bound out of the way: bytes must shed
  cfg.queue_max_bytes = test_utt(0).size() * sizeof(float);  // one queued utt
  TestServer ts(*model_, cfg);

  constexpr int kClients = 16;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client c = connect_to(ts);
      const Response r = c.score(test_utt(0));
      if (r.status == Status::kOk) {
        ok.fetch_add(1);
      } else if (r.status == Status::kOverloaded) {
        overloaded.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok.load() + overloaded.load(), kClients);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(other.load(), 0);
  Client admin = connect_to(ts);
  const obs::Json stats = obs::Json::parse(admin.stats().text);
  EXPECT_EQ(stat_at(stats, {"sheds", "overloaded"}),
            static_cast<double>(overloaded.load()));
  // Everything answered, so nothing may stay pinned in the byte ledger.
  EXPECT_EQ(stat_at(stats, {"queue", "bytes"}), 0.0);
}

#ifdef __linux__
std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST_F(ServeTest, DisconnectedClientsDoNotLeakFds) {
  TestServer ts(*model_);
  {
    Client warm = connect_to(ts);
    ASSERT_EQ(warm.score(test_utt(0)).status, Status::kOk);
  }
  const std::size_t before = open_fd_count();
  constexpr int kChurn = 40;
  for (int i = 0; i < kChurn; ++i) {
    Client c = connect_to(ts);
    ASSERT_EQ(c.ping().status, Status::kOk);
  }
  // The reader threads notice EOF asynchronously; poll until the churned
  // sockets are closed.  Without connection reaping the server keeps all
  // kChurn fds open and this never converges.
  std::size_t after = open_fd_count();
  for (int tries = 0; tries < 200 && after > before + 8; ++tries) {
    std::this_thread::sleep_for(10ms);
    after = open_fd_count();
  }
  EXPECT_LE(after, before + 8);
}
#endif  // __linux__

TEST_F(ServeTest, LapsedDeadlineShedsWithExplicitStatus) {
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window_ms = 300.0;  // the lone request waits the full window
  TestServer ts(*model_, cfg);
  Client c = connect_to(ts);
  const Response r = c.score(test_utt(0), /*deadline_ms=*/1);
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  const obs::Json stats = obs::Json::parse(c.stats().text);
  EXPECT_EQ(stat_at(stats, {"sheds", "deadline"}), 1.0);
}

TEST_F(ServeTest, EmptyScorePayloadIsBadRequest) {
  TestServer ts(*model_);
  Client c = connect_to(ts);
  const Response r = c.score(std::span<const float>{});
  EXPECT_EQ(r.status, Status::kBadRequest);
  // The connection itself is fine — only the request was bad.
  EXPECT_EQ(c.ping().status, Status::kOk);
}

TEST_F(ServeTest, NonFiniteOrOverflowingPcmIsBadRequest) {
  TestServer ts(*model_);
  Client c = connect_to(ts);
  const std::span<const float> utt = test_utt(0);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(), 3e38f}) {
    std::vector<float> samples(utt.begin(), utt.end());
    samples[17] = bad;
    const Response r = c.score(samples);
    EXPECT_EQ(r.status, Status::kBadRequest) << bad;
    EXPECT_NE(r.text.find("sample 17 "), std::string::npos) << r.text;
    // Only the request was bad: the next one on the connection scores.
    EXPECT_EQ(c.score(utt).status, Status::kOk) << bad;
  }
}

// --- malformed-frame robustness -------------------------------------------
//
// Contract (protocol.h): a malformed frame gets one clean kBadRequest
// response, then the server closes the poisoned connection; the daemon
// itself keeps serving fresh clients.

void expect_bad_request_then_close(int fd) {
  std::string body;
  ASSERT_TRUE(read_frame(fd, body)) << "expected an error response frame";
  const Response r = decode_response(body);
  EXPECT_EQ(r.status, Status::kBadRequest);
  EXPECT_FALSE(r.text.empty());
  EXPECT_FALSE(read_frame(fd, body)) << "poisoned connection must be closed";
}

void expect_server_alive(const TestServer& ts) {
  Client fresh = connect_to(ts);
  EXPECT_EQ(fresh.ping().status, Status::kOk);
}

TEST_F(ServeTest, BadMagicFrameGetsCleanErrorAndClose) {
  TestServer ts(*model_);
  Client probe = connect_to(ts);
  Request ping;
  ping.type = FrameType::kPing;
  ping.request_id = 7;
  std::string body = encode_request(ping);
  body[0] = 'X';  // corrupt the "PLSV" magic
  ASSERT_TRUE(write_frame(probe.fd(), body));
  expect_bad_request_then_close(probe.fd());
  expect_server_alive(ts);
}

TEST_F(ServeTest, WrongProtocolVersionGetsCleanErrorAndClose) {
  TestServer ts(*model_);
  Client probe = connect_to(ts);
  Request ping;
  ping.type = FrameType::kPing;
  ping.request_id = 8;
  std::string body = encode_request(ping);
  body[4] ^= 0x20;  // bytes 4..7 are the little-endian protocol version
  ASSERT_TRUE(write_frame(probe.fd(), body));
  expect_bad_request_then_close(probe.fd());
  expect_server_alive(ts);
}

TEST_F(ServeTest, OversizedLengthPrefixGetsCleanErrorAndClose) {
  TestServer ts(*model_);
  Client probe = connect_to(ts);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  ASSERT_TRUE(write_all(probe.fd(), &huge, sizeof huge));
  expect_bad_request_then_close(probe.fd());
  expect_server_alive(ts);
}

TEST_F(ServeTest, TruncatedFrameDoesNotWedgeTheServer) {
  TestServer ts(*model_);
  Client probe = connect_to(ts);
  // A length prefix promising 64 bytes, then only 8 and a hangup: the
  // server's reader hits EOF mid-frame and must drop the connection without
  // taking the daemon down.
  const std::uint32_t claimed = 64;
  ASSERT_TRUE(write_all(probe.fd(), &claimed, sizeof claimed));
  const std::uint64_t partial = 0xDEADBEEF;
  ASSERT_TRUE(write_all(probe.fd(), &partial, sizeof partial));
  probe.close();
  expect_server_alive(ts);
}

// --- request-scoped tracing (PLSV v2) -------------------------------------

TEST_F(ServeTest, TraceIdsAreMintedAndClientIdsAreEchoed) {
  TestServer ts(*model_);
  Client c = connect_to(ts);

  // trace_id 0 asks the daemon to mint: two requests get distinct nonzero
  // ids assigned at admission.
  const Response a = c.score(test_utt(0));
  const Response b = c.score(test_utt(0));
  ASSERT_EQ(a.status, Status::kOk);
  ASSERT_EQ(b.status, Status::kOk);
  EXPECT_NE(a.trace_id, 0u);
  EXPECT_NE(b.trace_id, 0u);
  EXPECT_NE(a.trace_id, b.trace_id);

  // A client-supplied id is propagated, not replaced.
  const Response tagged = c.score(test_utt(0), /*deadline_ms=*/0,
                                  /*trace_id=*/0x5EED5EED5EEDull);
  ASSERT_EQ(tagged.status, Status::kOk);
  EXPECT_EQ(tagged.trace_id, 0x5EED5EED5EEDull);
}

TEST_F(ServeTest, StatsCarryPhasesUptimeAndSlowLog) {
  ServerConfig cfg;
  cfg.slow_log = 4;
  TestServer ts(*model_, cfg);
  Client c = connect_to(ts);
  constexpr int kScores = 3;
  for (int i = 0; i < kScores; ++i) {
    ASSERT_EQ(c.score(test_utt(0)).status, Status::kOk);
  }

  const obs::Json stats = stats_after_phases(c, kScores);
  EXPECT_GE(stat_at(stats, {"uptime_s"}), 0.0);
  EXPECT_EQ(stat_at(stats, {"requests_total"}), stat_at(stats, {"requests"}));
  // Every scored request passed through all four phases exactly once.
  for (const char* phase :
       {"queue_wait_ms", "batch_wait_ms", "compute_ms", "write_ms"}) {
    EXPECT_EQ(stat_at(stats, {"phases", phase, "count"}),
              static_cast<double>(kScores))
        << phase;
    EXPECT_GE(stat_at(stats, {"phases", phase, "p99"}), 0.0) << phase;
  }
  // The slow-request ring holds the worst completed requests, each with a
  // full phase breakdown that sums to its total.
  const obs::Json* slow = stats.find("slow_requests");
  ASSERT_NE(slow, nullptr);
  ASSERT_TRUE(slow->is_array());
  ASSERT_GE(slow->as_array().size(), 1u);
  const obs::Json& worst = slow->as_array().front();
  EXPECT_NE(stat_at(worst, {"trace_id"}), 0.0);
  EXPECT_STREQ(worst.find("outcome")->as_string().c_str(), "ok");
  const double parts =
      stat_at(worst, {"queue_wait_ms"}) + stat_at(worst, {"batch_wait_ms"}) +
      stat_at(worst, {"compute_ms"}) + stat_at(worst, {"write_ms"});
  EXPECT_NEAR(stat_at(worst, {"total_ms"}), parts, 1e-6);
}

// --- PLSV v1 backward compatibility ---------------------------------------

std::uint32_t frame_wire_version(const std::string& body) {
  std::uint32_t version = 0;
  EXPECT_GE(body.size(), 8u);
  std::memcpy(&version, body.data() + 4, sizeof version);
  return version;
}

TEST_F(ServeTest, V1ClientsKeepWorkingByteIdentically) {
  TestServer ts(*model_);
  Client probe = connect_to(ts);

  // A pre-tracing client encodes wire_version 1: no trace-id field in
  // either direction, and the daemon answers with a v1 frame.
  Request score;
  score.type = FrameType::kScore;
  score.request_id = 41;
  score.wire_version = 1;
  const auto utt = test_utt(0);
  score.samples.assign(utt.begin(), utt.end());
  const std::string v1_body = encode_request(score);
  ASSERT_TRUE(write_frame(probe.fd(), v1_body));

  std::string reply;
  ASSERT_TRUE(read_frame(probe.fd(), reply));
  EXPECT_EQ(frame_wire_version(reply), 1u);
  const Response r = decode_response(reply);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.wire_version, 1u);
  EXPECT_EQ(r.trace_id, 0u);
  EXPECT_FALSE(r.llr.empty());

  // Byte identity: re-encoding the decoded response as v1 reproduces the
  // wire bytes exactly — the v2 daemon added nothing to the v1 layout.
  Response reencoded = r;
  reencoded.wire_version = 1;
  EXPECT_EQ(encode_response(reencoded), reply);

  // v2 on the same daemon does carry the trace id, proving the per-frame
  // version echo rather than a daemon-wide downgrade.
  Client v2 = connect_to(ts);
  EXPECT_NE(v2.score(test_utt(0)).trace_id, 0u);
}

// --- admin HTTP endpoint --------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string body;
  std::string raw;  // full response, headers included
};

/// Connect to the admin port, send `request` verbatim, read to EOF.  When
/// `half_close` is set the write side shuts down after the send, modelling
/// a client that hangs up mid-request.
HttpReply http_raw(int port, const std::string& request,
                   bool half_close = false) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ADD_FAILURE() << "admin connect failed";
    ::close(fd);
    return reply;
  }
  if (!request.empty()) {
    // A server rejecting early (oversized head) may close before the whole
    // request lands; the status we read back is the assertion, not the send.
    (void)write_all(fd, request.data(), request.size());
  }
  if (half_close) ::shutdown(fd, SHUT_WR);
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) {
    reply.raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (reply.raw.rfind("HTTP/1.1 ", 0) == 0 && reply.raw.size() >= 12) {
    reply.status = std::atoi(reply.raw.c_str() + 9);
  }
  const std::size_t header_end = reply.raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    reply.body = reply.raw.substr(header_end + 4);
  }
  return reply;
}

HttpReply http_get(int port, const std::string& target) {
  return http_raw(port, "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

/// Value of a sample line "name value" in Prometheus text, or -1.0.
double prom_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::atof(text.c_str() + pos + name.size() + 1);
    }
    pos += name.size();
  }
  return -1.0;
}

TEST_F(ServeTest, AdminMetricsServeLivePrometheusText) {
  ServerConfig cfg;
  cfg.admin_port = 0;  // ephemeral
  TestServer ts(*model_, cfg);
  ASSERT_GT(ts.server.admin_port(), 0);

  // Registry counters appear in the exposition once first touched; a ping
  // seeds serve_requests_total so the baseline scrape can read it.
  Client c = connect_to(ts);
  ASSERT_EQ(c.ping().status, Status::kOk);

  const HttpReply first = http_get(ts.server.admin_port(), "/metrics");
  ASSERT_EQ(first.status, 200);
  const double before = prom_value(first.body, "phonolid_serve_requests_total");
  ASSERT_GE(before, 1.0) << first.body.substr(0, 400);

  constexpr int kScores = 3;
  for (int i = 0; i < kScores; ++i) {
    ASSERT_EQ(c.score(test_utt(0)).status, Status::kOk);
  }

  // The scrape is live registry state, not an at-exit snapshot: the counter
  // must have grown by the requests just served (the registry is process-
  // global, so compare deltas, not absolutes).
  const HttpReply second = http_get(ts.server.admin_port(), "/metrics");
  ASSERT_EQ(second.status, 200);
  const double after = prom_value(second.body, "phonolid_serve_requests_total");
  EXPECT_GE(after, before + kScores);
  // Scrapes are counted on their own meter, never as PLSV requests.
  EXPECT_GE(prom_value(second.body, "phonolid_serve_admin_http_requests_total"),
            2.0);
}

TEST_F(ServeTest, AdminStatuszAgreesWithStatsFrame) {
  ServerConfig cfg;
  cfg.admin_port = 0;
  TestServer ts(*model_, cfg);
  Client c = connect_to(ts);
  ASSERT_EQ(c.score(test_utt(0)).status, Status::kOk);
  const obs::Json frame_stats = stats_after_phases(c, 1);

  // No PLSV traffic between the kStats frame and the scrape, so the two
  // views of requests_total must agree exactly.
  const HttpReply reply = http_get(ts.server.admin_port(), "/statusz");
  ASSERT_EQ(reply.status, 200);
  const obs::Json statusz = obs::Json::parse(reply.body);
  EXPECT_EQ(stat_at(statusz, {"requests_total"}),
            stat_at(frame_stats, {"requests_total"}));
  EXPECT_EQ(stat_at(statusz, {"protocol_version"}),
            static_cast<double>(kServeProtocolVersion));
  EXPECT_EQ(stat_at(statusz, {"admin", "http_version"}),
            static_cast<double>(kAdminHttpVersion));
  EXPECT_GE(stat_at(statusz, {"phases", "compute_ms", "count"}), 1.0);
}

TEST_F(ServeTest, AdminHealthzFlipsTo503DuringDrain) {
  ServerConfig cfg;
  cfg.admin_port = 0;
  TestServer ts(*model_, cfg);
  const int admin_port = ts.server.admin_port();

  const HttpReply ready = http_get(admin_port, "/healthz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ok\n");

  // A drain keeps the admin plane up but flips readiness: an LB probing
  // /healthz stops routing to this instance before the listener dies.
  ts.server.request_shutdown();
  const HttpReply draining = http_get(admin_port, "/healthz");
  EXPECT_EQ(draining.status, 503);
  EXPECT_NE(draining.body.find("drain"), std::string::npos) << draining.body;
}

TEST_F(ServeTest, AdminMalformedRequestsGetOneClean400) {
  ServerConfig cfg;
  cfg.admin_port = 0;
  TestServer ts(*model_, cfg);
  const int port = ts.server.admin_port();

  // Garbage that is not HTTP at all.
  EXPECT_EQ(http_raw(port, "BLARG\r\n\r\n").status, 400);
  // A head that never terminates and exceeds the request-size bound.
  EXPECT_EQ(http_raw(port, std::string(kMaxAdminRequestBytes + 512, 'A'))
                .status,
            400);
  // A partial request followed by a hangup.
  EXPECT_EQ(http_raw(port, "GET /hea", /*half_close=*/true).status, 400);
  // Wrong method and unknown path are explicit, not connection drops.
  EXPECT_EQ(http_raw(port, "POST /metrics HTTP/1.1\r\n\r\n").status, 405);
  EXPECT_EQ(http_get(port, "/nope").status, 404);

  // None of it perturbed the serving plane or the admin plane.
  EXPECT_EQ(http_get(port, "/healthz").status, 200);
  expect_server_alive(ts);
  const HttpReply scrape = http_get(port, "/metrics");
  EXPECT_GE(prom_value(scrape.body, "phonolid_serve_admin_http_bad_total"),
            3.0);
}

TEST_F(ServeTest, AdminConcurrentScrapesDuringScoringAreClean) {
  ServerConfig cfg;
  cfg.admin_port = 0;
  TestServer ts(*model_, cfg);
  const int port = ts.server.admin_port();

  // Scorers and scrapers race; under TSan this is the data-race check for
  // the registry snapshot, stats document, and slow-request ring.
  std::atomic<int> score_ok{0};
  std::atomic<int> scrape_ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      Client c = connect_to(ts);
      for (int i = 0; i < 8; ++i) {
        if (c.score(test_utt(0)).status == Status::kOk) score_ok.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const char* target = (i + t) % 2 == 0 ? "/metrics" : "/statusz";
        if (http_get(port, target).status == 200) scrape_ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(score_ok.load(), 3 * 8);
  EXPECT_EQ(scrape_ok.load(), 2 * 8);
}

TEST_F(ServeTest, ShutdownIsIdempotentAndStopsAccepting) {
  TestServer ts(*model_);
  const int port = ts.port;
  EXPECT_EQ(connect_to(ts).ping().status, Status::kOk);
  ts.server.shutdown();
  ts.server.shutdown();  // second call is a no-op
  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", port), std::runtime_error);
}

}  // namespace
}  // namespace phonolid::serve
