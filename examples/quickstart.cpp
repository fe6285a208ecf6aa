// quickstart — minimal end-to-end tour of the phonolid public API.
//
// Builds the synthetic LRE corpus, trains the six diversified front-ends,
// runs the PPRVSM baseline and one DBA pass (V = 3, both update modes),
// and prints EER/Cavg per duration tier — a miniature of the paper's
// headline experiment.
//
// Usage:  quickstart            (set PHONOLID_SCALE=quick for a fast run)
#include <cstdio>

#include "core/experiment.h"
#include "util/options.h"

int main() {
  using namespace phonolid;

  const auto scale = util::scale_from_env();
  std::printf("phonolid quickstart (scale=%s, seed=%llu)\n",
              util::to_string(scale),
              static_cast<unsigned long long>(util::master_seed()));

  // 1. Build everything: corpus, front-ends, supervectors, baseline VSMs.
  const auto config = core::ExperimentConfig::preset(scale, util::master_seed());
  const auto experiment = core::Experiment::build(config);
  std::printf("corpus: %zu languages, %zu train / %zu test utterances\n",
              experiment->num_languages(),
              experiment->corpus().vsm_train_info().size(),
              experiment->corpus().test_info().size());

  // 2. Baseline PPRVSM: fuse all six subsystems.
  std::vector<const core::SubsystemScores*> baseline_blocks;
  for (const auto& b : experiment->baseline_scores()) {
    baseline_blocks.push_back(&b);
  }
  const core::EvalResult baseline = experiment->evaluate(baseline_blocks);

  // 3. One DBA pass at the paper's optimal threshold V = 3 (scaled by the
  //    subsystem count if fewer than six front-ends are configured).
  const std::size_t v = 3;
  const auto selection = experiment->select(v);
  std::printf("\nDBA adopts %zu of %zu test utterances at V=%zu "
              "(hypothesised-label error %.1f%%)\n",
              selection.utt_index.size(), experiment->corpus().test_info().size(),
              v,
              100.0 * core::selection_error_rate(selection,
                                                 experiment->test_labels()));

  const auto m1 = experiment->run_dba(v, core::DbaMode::kM1);
  const auto m2 = experiment->run_dba(v, core::DbaMode::kM2);

  // 4. Fuse (DBA-M1)+(DBA-M2) with Eq. 15 weights, as in paper Table 4.
  std::vector<const core::SubsystemScores*> dba_blocks;
  for (const auto& b : m1) dba_blocks.push_back(&b);
  for (const auto& b : m2) dba_blocks.push_back(&b);
  std::vector<double> weights;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t count : selection.subsystem_fit_counts) {
      weights.push_back(static_cast<double>(count));
    }
  }
  const core::EvalResult dba = experiment->evaluate(dba_blocks, weights);

  std::printf("\n%-12s %14s %14s\n", "duration", "PPRVSM EER/Cavg",
              "DBA EER/Cavg");
  static const char* tiers[] = {"30s", "10s", "3s"};
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    std::printf("%-12s %6.2f / %5.2f %7.2f / %5.2f\n", tiers[t],
                100.0 * baseline.tier[t].eer, 100.0 * baseline.tier[t].cavg,
                100.0 * dba.tier[t].eer, 100.0 * dba.tier[t].cavg);
  }
  std::printf("\n(values in %%; DBA should match or beat the baseline, with "
              "the largest relative gain on the shortest tier)\n");
  return 0;
}
