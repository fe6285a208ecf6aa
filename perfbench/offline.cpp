// The offline user path (`phonolid run`): the chain itself, the cold/warm
// cycles that train every workload's model, and the offline set-up.
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "common.h"
#include "spans.h"

extern char** environ;

namespace perfbench {

core::ExperimentConfig experiment_config(std::uint64_t seed,
                                         const std::string& cache_dir) {
  core::ExperimentConfig cfg =
      core::ExperimentConfig::preset(util::Scale::kQuick, seed);
  cfg.cache_dir = cache_dir;
  return cfg;
}

std::vector<const core::SubsystemScores*> OfflineRun::dba_blocks() const {
  std::vector<const core::SubsystemScores*> blocks;
  for (const auto& b : m1) blocks.push_back(&b);
  for (const auto& b : m2) blocks.push_back(&b);
  return blocks;
}

std::vector<core::FrozenHead> OfflineRun::heads() const {
  std::vector<core::FrozenHead> heads;
  for (std::size_t h = 0; h < models.size(); ++h) {
    heads.push_back(core::FrozenHead{
        static_cast<std::uint32_t>(h % exp->num_subsystems()), models[h]});
  }
  return heads;
}

OfflineRun run_offline_chain(const core::ExperimentConfig& config) {
  OfflineRun r;
  {
    Span span("core.Experiment::build");
    r.exp = core::Experiment::build(config);
  }
  const core::Experiment& exp = *r.exp;
  r.min_votes = std::min<std::size_t>(3, exp.num_subsystems());

  // Baseline fusion and evaluation, as `phonolid run` reports them.
  std::vector<const core::SubsystemScores*> baseline;
  for (const auto& b : exp.baseline_scores()) baseline.push_back(&b);
  {
    Span span("backend.Experiment::fit_fusion");
    const backend::ScoreFusion fusion = exp.fit_fusion(baseline);
    span.end();
    Span eval_span("eval.Experiment::evaluate_with");
    (void)exp.evaluate_with(fusion, baseline);
  }

  // Both DBA modes with the Eq. 15 count weights, then the DBA fusion the
  // bundle freezes and its evaluation (whose LLRs the ledger keeps).
  const core::TrdbaSelection selection = exp.select(r.min_votes);
  for (const core::DbaMode mode : {core::DbaMode::kM1, core::DbaMode::kM2}) {
    Span span("core.Experiment::run_dba");
    auto scores = exp.run_dba(r.min_votes, mode, &r.models);
    (mode == core::DbaMode::kM1 ? r.m1 : r.m2) = std::move(scores);
    for (std::size_t c : selection.subsystem_fit_counts) {
      r.weights.push_back(static_cast<double>(c));
    }
  }
  const auto blocks = r.dba_blocks();
  {
    Span span("backend.Experiment::fit_fusion");
    r.fusion = exp.fit_fusion(blocks, r.weights);
  }
  {
    Span span("eval.Experiment::evaluate_with");
    (void)exp.evaluate_with(r.fusion, blocks);
  }
  std::ostringstream ledger;
  exp.ledger().write_jsonl(ledger);
  r.ledger = ledger.str();
  return r;
}

std::vector<std::vector<double>> expected_llrs(const core::Experiment& exp) {
  std::vector<std::vector<double>> out(exp.corpus().test().size());
  for (const obs::LedgerEntry& e : exp.ledger().entries) {
    if (e.utt < out.size()) out[e.utt] = e.fused_llr;
  }
  return out;
}

namespace {

bool ledger_has_all_llrs(const core::Experiment& exp) {
  const auto llrs = expected_llrs(exp);
  return !llrs.empty() &&
         std::all_of(llrs.begin(), llrs.end(), [&](const auto& v) {
           return v.size() == exp.num_languages();
         });
}

struct Cycle {
  double cold_s = 0, cold_cpu_s = 0, warm_s = 0;
  bool same_ledgers = false, complete = false;
};

/// One cold run into a fresh artifact store, then a warm rebuild from it.
/// The warm run is kept: it is the model the workloads freeze and serve.
Cycle run_cycle(const std::string& store, std::unique_ptr<OfflineRun>* keep_warm) {
  std::filesystem::remove_all(store);
  const core::ExperimentConfig cfg = experiment_config(kModelSeed, store);
  Cycle c;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  const std::string cold_ledger = run_offline_chain(cfg).ledger;
  const double t1 = now_s();
  c.cold_s = t1 - t0;
  c.cold_cpu_s = process_cpu_s() - cpu0;
  auto warm = std::make_unique<OfflineRun>(run_offline_chain(cfg));
  c.warm_s = now_s() - t1;
  c.same_ledgers = warm->ledger == cold_ledger;
  c.complete = ledger_has_all_llrs(*warm->exp);
  *keep_warm = std::move(warm);
  return c;
}

double median_of(const std::vector<Cycle>& cycles, double Cycle::*field) {
  std::vector<double> v;
  for (const Cycle& c : cycles) v.push_back(c.*field);
  return median(v);
}

}  // namespace

void start_program_process(const std::string& self) {
  std::string mode = "start";
  std::string path = self;
  char* argv[] = {path.data(), mode.data(), nullptr};
  pid_t pid = 0;
  if (::posix_spawn(&pid, path.c_str(), nullptr, nullptr, argv, environ) != 0) {
    throw std::runtime_error("cannot start " + self);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the start-up process failed");
  }
}

double offline_tracing_overhead_pct(const std::string& store,
                                    std::unique_ptr<OfflineRun>* keep_warm) {
  std::vector<double> plain_s, traced_s;
  for (int i = 0; i < 8; ++i) {
    SpanLog::enable(i % 2 == 1);
    const double t0 = now_s();
    auto run = std::make_unique<OfflineRun>(
        run_offline_chain(experiment_config(kModelSeed, store)));
    (i % 2 == 1 ? traced_s : plain_s).push_back(now_s() - t0);
    *keep_warm = std::move(run);
  }
  SpanLog::enable(true);
  return 100.0 * (median(traced_s) - median(plain_s)) / median(plain_s);
}

int prepare_model(const Options& opt) {
  const std::string store = opt.work_dir + "/store";
  std::filesystem::create_directories(opt.work_dir);
  std::vector<Cycle> cycles;
  std::unique_ptr<OfflineRun> served;
  bool same_ledgers = true, complete = true;
  std::size_t failed_runs = 0;
  for (std::size_t i = 0; i < kOfflineCycles; ++i) {
    served.reset();
    cycles.push_back(run_cycle(store, &served));
    same_ledgers = same_ledgers && cycles.back().same_ledgers;
    complete = complete && cycles.back().complete;
    if (!cycles.back().same_ledgers || !cycles.back().complete) failed_runs += 2;
  }

  core::FrozenModel::write_bundle(opt.work_dir + "/bundle", *served->exp,
                                  served->heads(), served->fusion);
  served->exp->write_ledger(opt.work_dir + "/ledger.jsonl");
  save_test_inputs(opt.work_dir + "/inputs.bin", *served->exp);
  obs::Json prep = obs::Json::object();
  prep["cold_run_s"] = median_of(cycles, &Cycle::cold_s);
  prep["cold_cpu_s"] = median_of(cycles, &Cycle::cold_cpu_s);
  prep["warm_run_s"] = median_of(cycles, &Cycle::warm_s);
  prep["peak_rss_mb"] = peak_rss_mb();
  prep["runs"] = 2 * cycles.size();
  prep["failed_runs"] = failed_runs;
  prep["ledgers_equal"] = same_ledgers;
  prep["ledgers_complete"] = complete;
  std::ofstream out(opt.work_dir + "/prep.json", std::ios::trunc);
  prep.dump(out);
  out << '\n';
  return out ? 0 : 1;
}

}  // namespace perfbench
