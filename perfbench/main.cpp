// phonolid_perfbench: the benchmark program behind perfbench/run.py.
//
//   phonolid_perfbench start
//       Starts the thread pool, runs a task on it and exits: the process
//       start the offline workload times as its set-up.
//   phonolid_perfbench prep --work-dir D
//       Preparation of every workload: trains the quick-scale model cold
//       and warm, in cycles, freezes it to D/bundle and writes the offline
//       ledger, the test-set PCM and the cold/warm times next to it.
//   phonolid_perfbench run --workload W --seed N --seconds S --trace 0|1
//                          --work-dir D [--trace-out F]
//       Runs workload W (offline | serve_open | serve_backlog) on the model
//       prep froze in D for about S seconds and prints one JSON object as its last stdout line: the
//       metrics, attempted/failed counts, the output checks and run facts.
//       A traced run writes its span log to F and a per-layer self-time
//       table to stdout.  Exit status 1 when an output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>

#include "common.h"
#include "spans.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  obs::Json m = obs::Json::object();
  m["value"] = value;
  m["unit"] = unit;
  metrics_[name] = std::move(m);
}

void Report::info(const std::string& key, obs::Json value) {
  info_[key] = std::move(value);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  for (const obs::Json& c : checks_.as_array()) {
    if (c.as_string() == what) return;
  }
  checks_.push_back(what);
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

obs::Json Report::to_json() const {
  obs::Json j = obs::Json::object();
  j["correct"] = correct_;
  j["attempted"] = attempted_;
  j["failed"] = failed_;
  j["metrics"] = metrics_;
  j["checks"] = checks_;
  j["info"] = info_;
  return j;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double order_statistic(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

}  // namespace perfbench

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: phonolid_perfbench start\n"
               "       phonolid_perfbench prep --work-dir D\n"
               "       phonolid_perfbench run --workload W --seed N "
               "--seconds S --trace 0|1 --work-dir D [--trace-out F]\n",
               message);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size() || text.empty()) {
    usage((std::string(flag) + " expects a non-negative integer").c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options opt;
  opt.self = argv[0];
  opt.mode = argv[1];
  bool have_seed = false;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("flag " + key + " expects a value").c_str());
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = parse_u64(value, "--seed");
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(value, "--seconds"));
    } else if (key == "--trace") {
      opt.trace = parse_u64(value, "--trace") != 0;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (opt.mode == "start") return opt;
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (opt.mode == "run") {
    if (!have_seed) usage("--seed is required");
    if (opt.workload != "offline" && opt.workload != "serve_open" &&
        opt.workload != "serve_backlog") {
      usage("--workload must be offline, serve_open or serve_backlog");
    }
    if (opt.seconds < 1) usage("--seconds must be at least 1");
  } else if (opt.mode != "prep") {
    usage("mode must be start, prep or run");
  }
  return opt;
}

void print_layer_table(perfbench::Report& report) {
  phonolid::obs::Json table = phonolid::obs::Json::object();
  std::printf("# %-48s %8s %12s %12s\n", "span (layer call)", "count",
              "total_s", "self_s");
  for (const auto& [name, t] : perfbench::SpanLog::layer_times()) {
    std::printf("# %-48s %8zu %12.6f %12.6f\n", name.c_str(), t.count,
                t.total_s, t.self_s);
    phonolid::obs::Json row = phonolid::obs::Json::object();
    row["count"] = t.count;
    row["total_s"] = t.total_s;
    row["self_s"] = t.self_s;
    table[name] = std::move(row);
  }
  report.info("layer_self_time", std::move(table));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    if (opt.mode == "start") {
      phonolid::util::parallel_for(
          0, phonolid::util::ThreadPool::global().num_threads(),
          [](std::size_t) {});
      return 0;
    }
    if (opt.mode == "prep") return perfbench::prepare_model(opt);

    perfbench::Report report;
    report.info("workload", opt.workload);
    report.info("seed", opt.seed);
    report.info("build_type", PERFBENCH_BUILD_TYPE);
    report.info("pool_threads",
                phonolid::util::ThreadPool::global().num_threads());
    perfbench::run_workload(opt, report);
    if (!opt.trace) {
      report.metric("ok_share",
                    static_cast<double>(report.attempted() - report.failed()) /
                        static_cast<double>(report.attempted()),
                    "share");
    } else {
      perfbench::SpanLog::enable(false);
      print_layer_table(report);
      if (!opt.trace_out.empty()) {
        perfbench::SpanLog::write_json(opt.trace_out);
      }
    }
    std::printf("%s\n", report.to_json().dump_string(0).c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
