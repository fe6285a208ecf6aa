// End-to-end pipeline tests on a micro corpus: two front-ends, three
// languages.  These verify the full chain audio -> features -> lattice ->
// supervector -> SVM -> votes -> DBA -> fusion -> metrics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>

#include "core/experiment.h"
#include "core/stage_cache.h"
#include "obs/metrics.h"
#include "pipeline/artifact_store.h"

namespace phonolid::core {
namespace {

ExperimentConfig micro_config() {
  ExperimentConfig cfg = ExperimentConfig::preset(util::Scale::kQuick, 77);
  cfg.corpus.family.num_languages = 3;
  cfg.corpus.num_universal_phones = 20;
  cfg.corpus.train_utts_per_language = 10;
  cfg.corpus.dev_utts_per_language_per_tier = 3;
  cfg.corpus.test_utts_per_language_per_tier = 4;
  cfg.corpus.num_native_languages = 2;
  cfg.corpus.am_train_utts_per_native = 8;
  cfg.corpus.am_train_seconds = 1.5;
  cfg.corpus.tier_seconds[0] = 1.2;
  cfg.corpus.tier_seconds[1] = 0.5;
  cfg.corpus.tier_seconds[2] = 0.25;
  cfg.corpus.train_seconds = 1.2;

  // Two front-ends only: one GMM-HMM, one ANN-HMM.
  auto all = default_frontends(util::Scale::kQuick);
  cfg.frontends = {all[0], all[5]};
  cfg.frontends[0].num_phones = 10;
  cfg.frontends[0].hidden_sizes = {24};
  cfg.frontends[0].native_language = 0;
  cfg.frontends[1].num_phones = 9;
  cfg.frontends[1].native_language = 1;
  return cfg;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    experiment_ = Experiment::build(micro_config()).release();
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }
  static Experiment* experiment_;
};

Experiment* IntegrationTest::experiment_ = nullptr;

TEST_F(IntegrationTest, BaselineScoreShapes) {
  const auto& exp = *experiment_;
  ASSERT_EQ(exp.num_subsystems(), 2u);
  for (std::size_t q = 0; q < 2; ++q) {
    const auto& scores = exp.baseline_scores()[q];
    EXPECT_EQ(scores.test.rows(), exp.corpus().test().size());
    EXPECT_EQ(scores.test.cols(), exp.num_languages());
    EXPECT_EQ(scores.dev.rows(), exp.corpus().dev().size());
    for (std::size_t i = 0; i < scores.test.rows(); ++i) {
      for (std::size_t c = 0; c < scores.test.cols(); ++c) {
        EXPECT_TRUE(std::isfinite(scores.test(i, c)));
      }
    }
  }
}

TEST_F(IntegrationTest, BaselineBeatsChanceOnLongestTier) {
  const auto& exp = *experiment_;
  // Identification accuracy of the raw SVM scores on the 30s tier should
  // clearly beat chance (1/3).
  const auto idx = exp.corpus().test_indices(corpus::DurationTier::k30s);
  const auto& scores = exp.baseline_scores()[0].test;
  std::size_t correct = 0;
  for (std::size_t i : idx) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < exp.num_languages(); ++c) {
      if (scores(i, c) > scores(i, best)) best = c;
    }
    if (static_cast<std::int32_t>(best) == exp.test_labels()[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(idx.size()),
            0.5);
}

TEST_F(IntegrationTest, VotesAreConsistentWithScores) {
  const auto& exp = *experiment_;
  const auto& votes = exp.votes();
  EXPECT_EQ(votes.num_utts, exp.corpus().test().size());
  EXPECT_EQ(votes.num_subsystems, 2u);
  // Re-derive a few votes manually from the baseline scores.
  for (std::size_t j = 0; j < std::min<std::size_t>(votes.num_utts, 10); ++j) {
    for (std::size_t q = 0; q < 2; ++q) {
      const auto& f = exp.baseline_scores()[q].test;
      std::size_t best = 0;
      bool own_pos = false, rivals_neg = true;
      for (std::size_t c = 0; c < votes.num_classes; ++c) {
        if (f(j, c) > f(j, best)) best = c;
      }
      own_pos = f(j, best) > 0.0f;
      for (std::size_t c = 0; c < votes.num_classes; ++c) {
        if (c != best && f(j, c) >= 0.0f) rivals_neg = false;
      }
      const bool expected = own_pos && rivals_neg;
      EXPECT_EQ(votes.vote(q, j, best), expected) << "utt " << j << " sub " << q;
    }
  }
}

TEST_F(IntegrationTest, SelectionPurityImprovesWithThreshold) {
  const auto& exp = *experiment_;
  // Table 1's structure: higher V -> fewer adopted utterances, and the
  // count is monotone.
  std::size_t prev_count = exp.corpus().test().size() + 1;
  for (std::size_t v = 1; v <= 2; ++v) {
    const auto sel = exp.select(v);
    EXPECT_LE(sel.utt_index.size(), prev_count);
    prev_count = sel.utt_index.size();
  }
  // With two subsystems, V=1 should adopt a reasonable share of test data.
  const auto sel1 = exp.select(1);
  EXPECT_GT(sel1.utt_index.size(), 0u);
  // Adopted labels beat chance clearly.
  const double err = selection_error_rate(sel1, exp.test_labels());
  EXPECT_LT(err, 0.5);
}

TEST_F(IntegrationTest, DbaRetrainingProducesValidScores) {
  const auto& exp = *experiment_;
  const auto m1 = exp.run_dba(1, DbaMode::kM1);
  const auto m2 = exp.run_dba(1, DbaMode::kM2);
  ASSERT_EQ(m1.size(), 2u);
  ASSERT_EQ(m2.size(), 2u);
  for (const auto& block : {m1[0], m2[0]}) {
    EXPECT_EQ(block.test.rows(), exp.corpus().test().size());
    for (std::size_t i = 0; i < block.test.rows(); ++i) {
      for (std::size_t c = 0; c < block.test.cols(); ++c) {
        EXPECT_TRUE(std::isfinite(block.test(i, c)));
      }
    }
  }
}

TEST_F(IntegrationTest, EvaluationProducesSaneMetrics) {
  const auto& exp = *experiment_;
  std::vector<const SubsystemScores*> blocks;
  for (const auto& b : exp.baseline_scores()) blocks.push_back(&b);
  const EvalResult result = exp.evaluate(blocks);
  for (std::size_t tier = 0; tier < corpus::kNumTiers; ++tier) {
    EXPECT_GE(result.tier[tier].eer, 0.0);
    EXPECT_LE(result.tier[tier].eer, 0.5 + 0.25);
    EXPECT_GE(result.tier[tier].cavg, 0.0);
    EXPECT_LE(result.tier[tier].cavg, 1.0);
    EXPECT_FALSE(result.det[tier].empty());
  }
  // Longest tier should not be harder than the shortest tier.
  EXPECT_LE(result.tier[0].eer, result.tier[2].eer + 0.1);
}

TEST_F(IntegrationTest, FusedBeatsOrMatchesWorstSingle) {
  const auto& exp = *experiment_;
  std::vector<const SubsystemScores*> blocks;
  for (const auto& b : exp.baseline_scores()) blocks.push_back(&b);
  const EvalResult fused = exp.evaluate(blocks);
  const EvalResult single0 = exp.evaluate_single(exp.baseline_scores()[0]);
  const EvalResult single1 = exp.evaluate_single(exp.baseline_scores()[1]);
  const double worst =
      std::max(single0.tier[0].eer, single1.tier[0].eer);
  EXPECT_LE(fused.tier[0].eer, worst + 0.05);
}

TEST_F(IntegrationTest, StageTimesAccumulated) {
  const auto& exp = *experiment_;
  const StageTimes t = exp.subsystem(0).stage_times();
  EXPECT_GT(t.decode_s, 0.0);
  EXPECT_GT(t.feature_s, 0.0);
  EXPECT_GT(t.supervector_s, 0.0);
  EXPECT_GT(t.audio_s, 0.0);
}

TEST_F(IntegrationTest, SubsystemDecodeProducesSoundLattice) {
  const auto& exp = *experiment_;
  const auto lattice = exp.subsystem(0).decode(exp.corpus().test()[0]);
  EXPECT_FALSE(lattice.edges().empty());
  EXPECT_FALSE(lattice.best_path().empty());
  const auto occ = lattice.frame_occupancy();
  for (double o : occ) EXPECT_NEAR(o, 1.0, 1e-3);
}

// --- Lazy corpus: a build renders only the audio its missing stages read ---

/// One artifact store per test process (ctest runs every test in its own
/// process, possibly in parallel), filled by a cold build in
/// SetUpTestSuite; each test then evicts what it needs and counts the
/// utterances its own build renders.
class LazyCorpusTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new ExperimentConfig(micro_config());
    const std::string dir =
        "phonolid_lazy_corpus_" + std::to_string(::getpid());
    config_->cache_dir =
        (std::filesystem::path(::testing::TempDir()) / dir).string();
    std::filesystem::remove_all(config_->cache_dir);
    cold_renders_ = renders_in_build();
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(config_->cache_dir);
    delete config_;
    config_ = nullptr;
  }

  static std::uint64_t renders_in_build() {
    const obs::Counter& rendered =
        obs::Metrics::counter("corpus.rendered_utterances");
    const std::uint64_t before = rendered.value();
    (void)Experiment::build(*config_);
    return rendered.value() - before;
  }

  /// Removes front end s's artifact ("frontend") or the supervectors
  /// artifact keyed by it, keyed as Experiment::build keys them.
  static void evict(std::size_t s, bool supervectors) {
    FrontEndSpec spec = config_->frontends[s];
    spec.use_lattice_counts = config_->use_lattice_counts;
    const pipeline::StageKey fe_key = frontend_stage_key(
        corpus_stage_key(config_->corpus, config_->scale, config_->seed), spec,
        config_->seed);
    const pipeline::ArtifactStore store(config_->cache_dir);
    const std::string path = store.path_for(
        supervectors ? supervectors_stage_key(fe_key) : fe_key);
    ASSERT_TRUE(std::filesystem::remove(path)) << path;
  }

  static std::size_t split_sizes() {
    const corpus::CorpusConfig& c = config_->corpus;
    return c.family.num_languages *
           (c.train_utts_per_language +
            corpus::kNumTiers * (c.dev_utts_per_language_per_tier +
                                 c.test_utts_per_language_per_tier));
  }

  static ExperimentConfig* config_;
  static std::uint64_t cold_renders_;
};

ExperimentConfig* LazyCorpusTest::config_ = nullptr;
std::uint64_t LazyCorpusTest::cold_renders_ = 0;

TEST_F(LazyCorpusTest, ColdBuildRendersEveryUtteranceOnce) {
  const corpus::CorpusConfig& c = config_->corpus;
  EXPECT_EQ(cold_renders_, c.num_native_languages * c.am_train_utts_per_native +
                               split_sizes());
}

TEST_F(LazyCorpusTest, WarmBuildRendersNothing) {
  EXPECT_EQ(renders_in_build(), 0u);
}

TEST_F(LazyCorpusTest, FrontEndMissRendersOnlyItsAmTrainSet) {
  evict(1, /*supervectors=*/false);
  EXPECT_EQ(renders_in_build(), config_->corpus.am_train_utts_per_native);
}

TEST_F(LazyCorpusTest, SupervectorMissRendersVsmTrainDevAndTest) {
  evict(0, /*supervectors=*/true);
  EXPECT_EQ(renders_in_build(), split_sizes());
}

}  // namespace
}  // namespace phonolid::core
