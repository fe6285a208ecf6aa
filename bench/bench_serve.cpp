// bench_serve — closed-loop load generator for the `phonolid serve` daemon.
// Its flags are the kFlags table below; run it without --port for the
// usage text.
//
// Regenerates the pooled test set of the given scale/seed (the same corpus
// the daemon's bundle was frozen from), opens `--connections` closed-loop
// clients, and scores every test utterance `--repeat` times.  Verifies the
// daemon end to end:
//
//   * every response OK, and repeats of one utterance bit-identical;
//   * with --ledger, daemon LLRs exactly equal the offline run's fused_llr
//     (the trainer/server split must not move a single bit);
//   * with --min-batch-p50, the server's batch-size histogram median must
//     reach it — proof that micro-batching actually engaged under load.
//
// --llr-out / --expected-llr write daemon and ledger LLRs in one shared
// text format ("<utt> <llr0> <llr1> ...", %.17g) so scripts/tier1.sh can
// `cmp` them byte for byte.  --report emits a schema-v1 run report with a
// "serve" section for report-diff gating against BENCH_serve.json.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "corpus/dataset.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "util/flags.h"
#include "util/options.h"
#include "util/thread_pool.h"

namespace {

using namespace phonolid;

using enum util::FlagKind;

const util::FlagSpec kFlags[] = {
    {"port", "N", "the daemon's port (required)", kInt, 1, 65535},
    {"host", "H", "the daemon's address (default 127.0.0.1)"},
    {"scale", "quick|default|full",
     "corpus scale the bundle was frozen at (default: $PHONOLID_SCALE, else "
     "default)",
     kChoice},
    {"seed", "N",
     "master seed the bundle was frozen with (default: $PHONOLID_SEED, else "
     "20090704)",
     kInt, 0},
    {"connections", "C", "closed-loop client connections (default 8)", kInt, 1},
    {"repeat", "R", "score every test utterance R times (default 1)", kInt, 1},
    {"ledger", "l.jsonl",
     "the offline run's decision ledger; daemon LLRs must equal its fused "
     "LLRs"},
    {"expected-llr", "f", "write the ledger's LLRs to f"},
    {"llr-out", "f", "write the daemon's LLRs to f"},
    {"report", "out.json",
     "write a schema-v1 run report with a \"serve\" section"},
    {"min-batch-p50", "X",
     "fail unless the daemon's batch-size median reaches X", kNumber, 0},
};

struct Options {
  std::string host;
  int port;
  util::Scale scale;
  std::uint64_t seed;
  std::size_t connections;
  std::size_t repeat;
  std::string ledger_path;
  std::string expected_llr_path;
  std::string llr_out_path;
  std::string report_path;
  double min_batch_p50;
};

/// Parse the command line against kFlags; a mistake exits 2 with usage.
Options parse_options(int argc, char** argv) {
  std::vector<std::string_view> accepted;
  for (const util::FlagSpec& spec : kFlags) accepted.push_back(spec.name);
  util::ParsedFlags flags;
  try {
    flags = util::parse_flags(kFlags, accepted,
                              std::vector<std::string>(argv + 1, argv + argc),
                              "bench_serve");
    if (!flags.positionals.empty()) {
      throw util::UsageError("unexpected argument " + flags.positionals[0]);
    }
    if (!flags.has("port")) throw util::UsageError("--port is required");
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "error: %s\nusage: bench_serve --port N [flags]\n%s",
                 e.what(), util::format_flag_help(kFlags).c_str());
    std::exit(2);
  }
  return {
      .host = flags.text("host", "127.0.0.1"),
      .port = static_cast<int>(flags.integer("port", 0)),
      .scale = util::parse_scale(
          flags.text("scale", util::to_string(util::scale_from_env()))),
      .seed = static_cast<std::uint64_t>(flags.integer(
          "seed", static_cast<std::int64_t>(util::master_seed()))),
      .connections = static_cast<std::size_t>(flags.integer("connections", 8)),
      .repeat = static_cast<std::size_t>(flags.integer("repeat", 1)),
      .ledger_path = flags.text("ledger"),
      .expected_llr_path = flags.text("expected-llr"),
      .llr_out_path = flags.text("llr-out"),
      .report_path = flags.text("report"),
      .min_batch_p50 = flags.number("min-batch-p50", 0.0)};
}

struct RequestSample {
  std::size_t utt = 0;
  double latency_ms = 0.0;
};

double exact_percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

double json_number(const obs::Json* node, const char* key) {
  const obs::Json* v = node == nullptr ? nullptr : node->find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

/// One line per utterance, "<utt> <llr0> <llr1> ...\n" with %.17g — the
/// exact round-trip format the ledger uses, so daemon f32 LLRs and offline
/// double LLRs compare byte-identically via cmp when the bits agree.
void write_llr_file(const std::string& path,
                    const std::map<std::size_t, std::vector<double>>& llrs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  char buf[64];
  for (const auto& [utt, llr] : llrs) {
    out << utt;
    for (double v : llr) {
      std::snprintf(buf, sizeof buf, " %.17g", v);
      out << buf;
    }
    out << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::printf("# bench_serve (scale=%s, seed=%llu, %s:%d, %zu connections, "
              "repeat %zu)\n",
              util::to_string(opt.scale),
              static_cast<unsigned long long>(opt.seed), opt.host.c_str(),
              opt.port, opt.connections, opt.repeat);

  const auto corpus_cfg = corpus::CorpusConfig::preset(opt.scale, opt.seed);
  const auto corpus = corpus::LreCorpus::build(corpus_cfg);
  const auto& test = corpus.test();
  if (test.empty()) {
    std::fprintf(stderr, "error: empty test set at scale %s\n",
                 util::to_string(opt.scale));
    return 1;
  }
  std::printf("# %zu pooled test utterances -> %zu requests\n", test.size(),
              test.size() * opt.repeat);

  // The work list: every pooled test utterance, repeated; shards rotate so
  // each connection touches a spread of utterance lengths.
  std::vector<std::size_t> work;
  work.reserve(test.size() * opt.repeat);
  for (std::size_t r = 0; r < opt.repeat; ++r) {
    for (std::size_t u = 0; u < test.size(); ++u) work.push_back(u);
  }

  std::mutex results_mu;
  std::map<std::size_t, std::vector<double>> llr_by_utt;
  std::vector<RequestSample> samples;
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> mismatches{0};

  obs::Span load_span("bench_serve_load");
  std::vector<std::thread> threads;
  threads.reserve(opt.connections);
  for (std::size_t c = 0; c < opt.connections; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      try {
        client.connect(opt.host, opt.port);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "connection %zu: %s\n", c, e.what());
        failures.fetch_add(1);
        return;
      }
      std::vector<RequestSample> local_samples;
      for (std::size_t i = c; i < work.size(); i += opt.connections) {
        const std::size_t utt = work[i];
        const auto t0 = std::chrono::steady_clock::now();
        serve::Response response;
        try {
          response = client.score(test[utt].samples);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "utt %zu: %s\n", utt, e.what());
          failures.fetch_add(1);
          return;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (response.status != serve::Status::kOk) {
          std::fprintf(stderr, "utt %zu: status %s (%s)\n", utt,
                       serve::to_string(response.status),
                       response.text.c_str());
          failures.fetch_add(1);
          continue;
        }
        std::vector<double> llr(response.llr.begin(), response.llr.end());
        std::lock_guard<std::mutex> lock(results_mu);
        local_samples.push_back({utt, ms});
        const auto [it, inserted] =
            llr_by_utt.emplace(utt, std::move(llr));
        if (!inserted &&
            !std::equal(it->second.begin(), it->second.end(),
                        response.llr.begin(), response.llr.end(),
                        [](double a, float b) {
                          return a == static_cast<double>(b);
                        })) {
          mismatches.fetch_add(1);  // repeats must be bit-identical
        }
      }
      std::lock_guard<std::mutex> lock(results_mu);
      samples.insert(samples.end(), local_samples.begin(),
                     local_samples.end());
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = load_span.stop();

  if (samples.empty()) {
    std::fprintf(stderr, "error: no successful requests\n");
    return 1;
  }
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const auto& s : samples) latencies.push_back(s.latency_ms);
  std::sort(latencies.begin(), latencies.end());
  const double p50 = exact_percentile(latencies, 0.50);
  const double p95 = exact_percentile(latencies, 0.95);
  const double p99 = exact_percentile(latencies, 0.99);
  const double p999 = exact_percentile(latencies, 0.999);
  double latency_sum = 0.0;
  for (double v : latencies) latency_sum += v;
  const double throughput =
      wall_s > 0.0 ? static_cast<double>(samples.size()) / wall_s : 0.0;
  std::printf("# %zu ok in %.2fs: %.1f req/s, latency ms p50 %.1f p95 %.1f "
              "p99 %.1f p99.9 %.1f\n",
              samples.size(), wall_s, throughput, p50, p95, p99, p999);

  // Server-side view: batch-size histogram, sheds, swaps, phase breakdown.
  obs::Json stats = obs::Json::object();
  double batch_p50 = 0.0, batch_mean = 0.0;
  try {
    serve::Client client;
    client.connect(opt.host, opt.port);
    stats = obs::Json::parse(client.stats().text);
    const obs::Json* batch = stats.find("batch");
    batch_p50 = json_number(batch, "p50");
    batch_mean = json_number(batch, "mean");
    std::printf("# server: %0.f requests, batch size p50 %.0f mean %.2f, "
                "%.0f overload sheds, %.0f bad frames, up %.1fs\n",
                json_number(&stats, "requests_total"), batch_p50, batch_mean,
                json_number(stats.find("sheds"), "overloaded"),
                json_number(stats.find("errors"), "bad_frame"),
                json_number(&stats, "uptime_s"));
    if (const obs::Json* phases = stats.find("phases"); phases != nullptr) {
      std::printf("# phases p99 ms: queue_wait %.2f batch_wait %.2f "
                  "compute %.2f write %.2f\n",
                  json_number(phases->find("queue_wait_ms"), "p99"),
                  json_number(phases->find("batch_wait_ms"), "p99"),
                  json_number(phases->find("compute_ms"), "p99"),
                  json_number(phases->find("write_ms"), "p99"));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: stats frame failed: %s\n", e.what());
  }

  int rc = 0;
  if (failures.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu failed requests\n",
                 static_cast<unsigned long long>(failures.load()));
    rc = 1;
  }
  if (mismatches.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu repeated scores differed (non-deterministic "
                 "daemon)\n",
                 static_cast<unsigned long long>(mismatches.load()));
    rc = 1;
  }

  // Bit-exact comparison against the offline run's ledger.
  if (!opt.ledger_path.empty()) {
    obs::DecisionLedger ledger;
    try {
      ledger = obs::DecisionLedger::read_jsonl_file(opt.ledger_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::map<std::size_t, std::vector<double>> expected;
    for (const auto& entry : ledger.entries) {
      if (!entry.fused_llr.empty()) {
        expected[static_cast<std::size_t>(entry.utt)] = entry.fused_llr;
      }
    }
    std::size_t compared = 0, unequal = 0;
    for (const auto& [utt, llr] : llr_by_utt) {
      const auto it = expected.find(utt);
      if (it == expected.end()) continue;
      ++compared;
      if (llr != it->second) {
        if (++unequal <= 3) {
          std::fprintf(stderr, "LLR mismatch at utt %zu\n", utt);
        }
      }
    }
    std::printf("# ledger: %zu utterances compared, %zu mismatched\n",
                compared, unequal);
    if (compared == 0 || unequal != 0) {
      std::fprintf(stderr,
                   "FAIL: daemon is not bit-identical to the offline run\n");
      rc = 1;
    }
    if (!opt.expected_llr_path.empty()) {
      // Only utterances the daemon scored, in the same order/format as
      // --llr-out, so tier1.sh can cmp the two files directly.
      std::map<std::size_t, std::vector<double>> subset;
      for (const auto& [utt, llr] : llr_by_utt) {
        const auto it = expected.find(utt);
        if (it != expected.end()) subset[utt] = it->second;
      }
      write_llr_file(opt.expected_llr_path, subset);
    }
  }
  if (!opt.llr_out_path.empty()) write_llr_file(opt.llr_out_path, llr_by_utt);

  if (opt.min_batch_p50 > 0.0 && batch_p50 < opt.min_batch_p50) {
    std::fprintf(stderr,
                 "FAIL: batch size p50 %.1f below required %.1f — "
                 "micro-batching did not engage\n",
                 batch_p50, opt.min_batch_p50);
    rc = 1;
  }

  if (!opt.report_path.empty()) {
    const obs::ReportMeta meta{
        .tool = "phonolid-bench", .command = "bench_serve",
        .scale = util::to_string(opt.scale), .seed = opt.seed,
        .threads = util::ThreadPool::global().num_threads()};
    obs::Json serve_section = obs::Json::object();
    // v2: adds latency_ms.p999 and the per-phase "phases" block sourced
    // from the daemon's kStats frame (p50/p99/p999/mean/count per phase).
    serve_section["version"] = 2;
    serve_section["protocol_version"] = json_number(&stats, "protocol_version");
    serve_section["connections"] = opt.connections;
    serve_section["repeat"] = opt.repeat;
    serve_section["requests"] = samples.size();
    serve_section["failures"] = failures.load();
    serve_section["wall_s"] = wall_s;
    serve_section["throughput_rps"] = throughput;
    obs::Json latency = obs::Json::object();
    latency["p50"] = p50;
    latency["p95"] = p95;
    latency["p99"] = p99;
    latency["p999"] = p999;
    latency["mean"] = latency_sum / static_cast<double>(latencies.size());
    latency["max"] = latencies.back();
    serve_section["latency_ms"] = std::move(latency);
    if (const obs::Json* phases = stats.find("phases"); phases != nullptr) {
      obs::Json phase_section = obs::Json::object();
      for (const char* name :
           {"queue_wait_ms", "batch_wait_ms", "compute_ms", "write_ms"}) {
        const obs::Json* h = phases->find(name);
        if (h == nullptr) continue;
        obs::Json p = obs::Json::object();
        p["p50"] = json_number(h, "p50");
        p["p99"] = json_number(h, "p99");
        p["p999"] = json_number(h, "p999");
        p["mean"] = json_number(h, "mean");
        p["count"] = json_number(h, "count");
        phase_section[name] = std::move(p);
      }
      serve_section["phases"] = std::move(phase_section);
    }
    obs::Json batch = obs::Json::object();
    batch["p50"] = batch_p50;
    batch["mean"] = batch_mean;
    serve_section["batch_size"] = std::move(batch);
    serve_section["sheds_overloaded"] =
        json_number(stats.find("sheds"), "overloaded");
    serve_section["sheds_deadline"] =
        json_number(stats.find("sheds"), "deadline");
    serve_section["swaps"] = json_number(&stats, "swaps");
    obs::Json extra = obs::Json::object();
    extra["serve"] = std::move(serve_section);
    obs::write_report_file(opt.report_path,
                           obs::build_report(meta, std::move(extra)));
    std::printf("# wrote run report to %s\n", opt.report_path.c_str());
  }
  return rc;
}
