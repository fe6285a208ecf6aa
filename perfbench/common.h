// Shared pieces of the phonolid benchmark (see README.md in this directory).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/fusion.h"
#include "core/experiment.h"
#include "core/frozen_model.h"
#include "obs/json.h"

namespace perfbench {

using namespace phonolid;

struct Options {
  std::string mode;      // "start", "prep" or "run"
  std::string workload;  // offline | serve_open | serve_backlog
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // per-run working directory (inside the checkout)
  std::string trace_out;   // span dump written at exit (trace runs)
  std::string self;        // this binary, as invoked
};

/// Open-loop arrival rate of serve_open (requests per second).  About half
/// the saturated capacity of the seed daemon on a 4-core machine
/// (about 150 req/s under serve_backlog).
inline constexpr double kOpenLoopRate = 75.0;
/// serve_backlog: requests each connection keeps in flight.
inline constexpr std::size_t kBacklogWindow = 8;
/// Connections (and load-generator threads) of the serve workloads.
inline constexpr std::size_t kConnections = 4;
/// Cold/warm cycles of the preparation step; the offline times are their
/// medians, so one cycle slowed by the host does not move them.
inline constexpr std::size_t kOfflineCycles = 3;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;
/// The model every workload trains and serves (quick scale).  Training
/// cost differs by about 10% from one model seed to the next (early
/// stopping, SVM convergence, the DBA selection), more than a regression
/// bound, so the model is fixed and the workload seed varies what runs on it.
inline constexpr std::uint64_t kModelSeed = 20090704;

/// What one invocation reports: metrics, counts, checks and run facts.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, obs::Json value);
  /// Record an output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  void count(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] obs::Json to_json() const;

 private:
  obs::Json metrics_ = obs::Json::object();
  obs::Json info_ = obs::Json::object();
  obs::Json checks_ = obs::Json::array();
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- measurement helpers -------------------------------------------------

double now_s();
double process_cpu_s();
double peak_rss_mb();
double median(std::vector<double> values);
/// Exact order statistic (nearest rank) of the q-quantile.
double order_statistic(std::vector<double> values, double q);
/// Samples strictly beyond the nearest-rank q-quantile position.
std::size_t samples_beyond(std::size_t n, double q);

/// FNV-1a over raw bytes, chainable.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t v);

/// splitmix64: the benchmark's own deterministic stream for request order
/// and arrival times (independent of the program's RNG).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1)
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

// ---- the offline user path -----------------------------------------------

core::ExperimentConfig experiment_config(std::uint64_t seed,
                                         const std::string& cache_dir);

/// `phonolid run` end to end: Experiment::build (which runs
/// LreCorpus::build), baseline fusion + evaluation, both DBA modes, the
/// count-weighted DBA fusion fit and its evaluation.  The products are
/// exactly what `phonolid freeze` snapshots into a bundle.
struct OfflineRun {
  std::unique_ptr<core::Experiment> exp;
  std::size_t min_votes = 0;
  std::vector<core::SubsystemScores> m1, m2;
  std::vector<double> weights;
  std::vector<svm::VsmModel> models;  // DBA heads, M1 then M2
  backend::ScoreFusion fusion;        // fitted on the DBA blocks
  std::string ledger;                 // decision ledger JSONL
  [[nodiscard]] std::vector<const core::SubsystemScores*> dba_blocks() const;
  [[nodiscard]] std::vector<core::FrozenHead> heads() const;
};
OfflineRun run_offline_chain(const core::ExperimentConfig& config);

/// Expected daemon answer per pooled test utterance: the ledger's fused LLR.
std::vector<std::vector<double>> expected_llrs(const core::Experiment& exp);

/// Starts a fresh process of this binary (`self`) in its `start` mode,
/// which starts the thread pool, runs a task on it and exits; waits for it.
void start_program_process(const std::string& self);

/// Warm rebuilds of the experiment from `store`, alternately untraced and
/// traced, four each: the difference of their medians in percent.  Keeps
/// the last rebuild.
double offline_tracing_overhead_pct(const std::string& store,
                                    std::unique_ptr<OfflineRun>* keep_warm);

// ---- workloads -----------------------------------------------------------

/// The preparation step of every workload, under opt.work_dir: trains the
/// model through the offline path (kOfflineCycles cycles of a cold run into
/// a fresh store, then a warm one), freezes it, writes its ledger, the
/// test-set PCM and prep.json with the median cold/warm times, the checks
/// and the process's peak RSS.
int prepare_model(const Options& opt);

/// The measured run of a workload, after prepare_model: set-up, then the
/// load pass on the frozen model through an in-process daemon; a traced run
/// adds the serve layers and the layer decomposition.
void run_workload(const Options& opt, Report& report);

/// Writes the pooled test set's PCM for the load generator.
void save_test_inputs(const std::string& path, const core::Experiment& exp);

/// Everything the traced layer decomposition needs from a workload run.
struct TracedModel {
  const OfflineRun* run = nullptr;  // experiment + DBA products
  const core::FrozenModel* frozen = nullptr;
  std::string store_dir;            // artifact store holding the stages
};
void run_layer_decomposition(const TracedModel& model, const Options& opt,
                             Report& report);

}  // namespace perfbench
