// End-to-end experiment driver for the paper's evaluation.
//
// Owns the corpus, the six subsystems and their cached supervectors, the
// baseline VSMs, and the DBA re-training machinery.  Every table/figure
// bench is a thin loop over this class:
//   - baseline_scores()      -> PPRVSM columns of Tables 2-4
//   - votes() / select()     -> Table 1
//   - run_dba(V, mode)       -> DBA columns of Tables 2-3
//   - evaluate()/evaluate_fused() -> EER/Cavg/DET per duration tier
// Supervectors are computed exactly once (shared by the baseline and every
// DBA configuration), mirroring the paper's cost argument (§5.4).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/fusion.h"
#include "core/dba.h"
#include "core/frontend_spec.h"
#include "core/subsystem.h"
#include "eval/metrics.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "svm/vsm.h"

namespace phonolid::core {

struct ExperimentConfig {
  corpus::CorpusConfig corpus;
  std::vector<FrontEndSpec> frontends;
  svm::VsmTrainConfig vsm;
  backend::FusionConfig fusion;
  VoteCriterion vote_criterion = VoteCriterion::kStrict;
  /// Use lattice expected counts; false = 1-best ablation.
  bool use_lattice_counts = true;
  /// Streaming-chunk granularity (samples) for every subsystem's batch
  /// entry points (CLI --chunk-ms).  0 = whole utterance.  Bit-identical
  /// for any value, so it deliberately does NOT enter stage keys — warm
  /// artifacts stay valid across chunkings (that's the equivalence the
  /// tier1 streaming gate proves).
  std::size_t batch_chunk_samples = 0;
  std::uint64_t seed = 20090704;
  /// The scale this config was preset at (report metadata).
  util::Scale scale = util::Scale::kDefault;
  /// When non-empty, entry points (CLI/benches) write a structured JSON run
  /// report here after the experiment finishes (see Experiment::write_report
  /// and DESIGN.md "Observability").
  std::string report_path;
  /// Artifact-store root for the stage cache (--cache-dir).  Empty means
  /// "resolve from $PHONOLID_CACHE, else run uncached" (see
  /// pipeline::ArtifactStore::resolve_root and DESIGN.md "Pipeline &
  /// artifact store").
  std::string cache_dir;
  /// When non-empty, entry points write the decision ledger (JSONL, see
  /// obs/ledger.h) here after the experiment finishes (--ledger).  The
  /// in-memory ledger is always recorded; this only controls the file.
  std::string ledger_path;

  /// Paper-shaped configuration for the given scale.
  static ExperimentConfig preset(util::Scale scale, std::uint64_t seed);
};

/// Adoption statistics of one DBA re-training pass, recorded by
/// run_dba_selection in call order (a multi-iteration boosting loop produces
/// one entry per round).
struct DbaRoundStats {
  std::size_t round = 0;  // 1-based
  DbaMode mode = DbaMode::kM1;
  std::size_t min_votes = 0;        // 0 when the selection was hand-built
  std::size_t votes_cast = 0;       // total votes in the underlying VoteResult
  std::size_t utts_adopted = 0;     // |T_DBA|
  std::size_t trdba_size = 0;       // |Tr_DBA| fed to the VSM re-training
  /// Adopted utterances whose hypothesised label changed vs the previous
  /// round that adopted them (0 for the first round).
  std::size_t label_flips = 0;
  double selection_error = 0.0;     // vs ground truth (Table 1 column)
};

/// Scores of one subsystem on the dev and test sets (utterances x K).
struct SubsystemScores {
  util::Matrix dev;
  util::Matrix test;
};

/// EER / Cavg for one duration tier (fractions, not percent).
struct TierMetrics {
  double eer = 0.0;
  double cavg = 0.0;
};

struct EvalResult {
  TierMetrics tier[corpus::kNumTiers];
  /// Pooled-trial DET curve per tier (from calibrated LLR scores).
  std::vector<eval::DetPoint> det[corpus::kNumTiers];
};

class Experiment {
 public:
  /// Heavy on a cold cache: generates the corpus, trains every front-end,
  /// computes all supervectors, trains the baseline VSMs and scores
  /// dev+test.  With an artifact store configured (config.cache_dir /
  /// $PHONOLID_CACHE) each front-end's train / decode / VSM stage is pulled
  /// from the store when its key matches, so a warm run skips straight to
  /// scoring — bit-identical to the cold run by construction (the artifacts
  /// *are* the cold run's products).  Front ends are trained or loaded
  /// concurrently (pipeline::StageRunner), then every front end whose
  /// supervectors missed is decoded in one utterance-major pass that
  /// computes each distinct feature config once per utterance
  /// (core::decode_splits), then the baseline VSMs train concurrently.
  static std::unique_ptr<Experiment> build(const ExperimentConfig& config);

  /// Artifact-store root this experiment resolved ("" = uncached run).
  [[nodiscard]] const std::string& cache_root() const noexcept {
    return cache_root_;
  }

  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const corpus::LreCorpus& corpus() const noexcept {
    return corpus_;
  }
  [[nodiscard]] std::size_t num_subsystems() const noexcept {
    return subsystems_.size();
  }
  [[nodiscard]] std::size_t num_languages() const noexcept {
    return corpus_.num_target_languages();
  }
  [[nodiscard]] const Subsystem& subsystem(std::size_t q) const {
    return *subsystems_.at(q);
  }

  [[nodiscard]] const std::vector<std::int32_t>& test_labels() const noexcept {
    return test_labels_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& dev_labels() const noexcept {
    return dev_labels_;
  }

  /// Baseline (PPRVSM) scores per subsystem.
  [[nodiscard]] const std::vector<SubsystemScores>& baseline_scores()
      const noexcept {
    return baseline_;
  }

  /// Votes of the baseline subsystems on the pooled test set (Eq. 10-13).
  [[nodiscard]] const VoteResult& votes() const noexcept { return votes_; }

  /// T_DBA selection for a threshold (paper: c_jk > V; realised as
  /// count >= min_votes — pass V directly, the column "V = n" of Tables
  /// 1-3 uses min_votes = n).
  [[nodiscard]] TrdbaSelection select(std::size_t min_votes) const {
    return select_trdba(votes_, min_votes);
  }

  /// Re-train every subsystem's VSM on Tr_DBA(V, mode) and re-score.
  /// `models_out` non-null appends the re-trained per-subsystem VSMs (the
  /// freeze path snapshots them into the bundle).
  [[nodiscard]] std::vector<SubsystemScores> run_dba(
      std::size_t min_votes, DbaMode mode,
      std::vector<svm::VsmModel>* models_out = nullptr) const;

  /// Vote counting over arbitrary score blocks (e.g. a previous DBA pass,
  /// enabling multi-iteration boosting) with a configurable criterion.
  [[nodiscard]] VoteResult votes_for(
      const std::vector<SubsystemScores>& blocks,
      VoteCriterion criterion = VoteCriterion::kStrict) const;

  /// Re-train from an explicit selection (the core of run_dba; exposed for
  /// iterated boosting and criterion ablations).  `votes` is the VoteResult
  /// the selection was made from, used to attribute per-subsystem vote bits
  /// and margins in the decision ledger; nullptr means the baseline votes()
  /// (correct for run_dba / select; pass the matching result for selections
  /// built from votes_for).
  [[nodiscard]] std::vector<SubsystemScores> run_dba_selection(
      const TrdbaSelection& selection, DbaMode mode,
      const VoteResult* votes = nullptr,
      std::vector<svm::VsmModel>* models_out = nullptr) const;

  /// Calibrate (LDA-MMI per tier, trained on dev) and evaluate an arbitrary
  /// set of subsystem score blocks.  `weights` empty = uniform (Eq. 15
  /// weights are produced by fusion_weights_from_counts on a selection's
  /// subsystem_fit_counts).
  [[nodiscard]] EvalResult evaluate(
      const std::vector<const SubsystemScores*>& blocks,
      std::vector<double> weights = {}) const;

  /// The fusion-fitting half of evaluate(): LDA-MMI trained on the blocks'
  /// dev scores.  Exposed so the freeze path can snapshot the exact fusion
  /// an evaluate() pass would use.
  [[nodiscard]] backend::ScoreFusion fit_fusion(
      const std::vector<const SubsystemScores*>& blocks,
      std::vector<double> weights = {}) const;

  /// The scoring half of evaluate(): per-tier metrics + DET from an already
  /// fitted fusion.  evaluate() == evaluate_with(fit_fusion(blocks, w),
  /// blocks).
  [[nodiscard]] EvalResult evaluate_with(
      const backend::ScoreFusion& fusion,
      const std::vector<const SubsystemScores*>& blocks) const;

  /// Single-subsystem convenience.
  [[nodiscard]] EvalResult evaluate_single(const SubsystemScores& block) const;

  /// Per-round DBA adoption statistics accumulated by run_dba_selection.
  [[nodiscard]] std::vector<DbaRoundStats> dba_rounds() const;

  /// The "dba" section of the run report ({"rounds": [...]}).
  [[nodiscard]] obs::Json dba_report() const;

  /// Snapshot of the decision ledger: baseline scores are recorded at
  /// build time, per-utterance round records by run_dba_selection, and
  /// fused LLRs by every evaluate() pass (last pass wins).
  [[nodiscard]] obs::DecisionLedger ledger() const;

  /// Serialize the ledger as deterministic JSONL (--ledger).
  void write_ledger(const std::string& path) const;

  /// Write the full structured JSON run report: obs metrics + trace spans +
  /// per-round DBA stats + experiment metadata, plus caller-provided extra
  /// sections (must be an object; merged at the top level).
  void write_report(const std::string& path, const std::string& command,
                    obs::Json extra = obs::Json::object()) const;

  /// Supervector caches (exposed for benches measuring VSM cost).
  [[nodiscard]] const std::vector<phonotactic::SparseVec>& train_svs(
      std::size_t q) const {
    return train_svs_.at(q);
  }
  [[nodiscard]] const std::vector<phonotactic::SparseVec>& test_svs(
      std::size_t q) const {
    return test_svs_.at(q);
  }
  [[nodiscard]] const std::vector<std::int32_t>& train_labels() const noexcept {
    return train_labels_;
  }
  [[nodiscard]] const svm::VsmModel& baseline_vsm(std::size_t q) const {
    return baseline_vsms_.at(q);
  }

 private:
  Experiment() = default;

  /// Seed the ledger header + per-utterance baseline entries (build time).
  void init_ledger();

  /// Records aggregate round stats and the per-utterance ledger rounds;
  /// returns the stats (with the 1-based round index) just recorded.
  DbaRoundStats record_dba_round(const TrdbaSelection& selection, DbaMode mode,
                                 std::size_t trdba_size,
                                 const VoteResult& votes) const;

  ExperimentConfig config_;
  std::string cache_root_;
  corpus::LreCorpus corpus_;
  std::vector<std::unique_ptr<Subsystem>> subsystems_;

  std::vector<std::vector<phonotactic::SparseVec>> train_svs_;
  std::vector<std::vector<phonotactic::SparseVec>> dev_svs_;
  std::vector<std::vector<phonotactic::SparseVec>> test_svs_;
  std::vector<std::int32_t> train_labels_;
  std::vector<std::int32_t> dev_labels_;
  std::vector<std::int32_t> test_labels_;

  std::vector<svm::VsmModel> baseline_vsms_;
  std::vector<SubsystemScores> baseline_;
  VoteResult votes_;

  // DBA round bookkeeping (mutated by const re-training entry points).
  mutable std::mutex dba_mutex_;
  mutable std::vector<DbaRoundStats> dba_rounds_;
  /// Adopted label per test utterance in the latest round, for flip counts.
  mutable std::unordered_map<std::uint32_t, std::int32_t> last_adopted_;
  /// Decision ledger (guarded by dba_mutex_ after build).
  mutable obs::DecisionLedger ledger_;
};

}  // namespace phonolid::core
