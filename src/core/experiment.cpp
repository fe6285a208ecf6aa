#include "core/experiment.h"

#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/stage_cache.h"
#include "eval/diagnostics.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pipeline/artifact_store.h"
#include "pipeline/stage_runner.h"
#include "util/logging.h"
#include "util/options.h"
#include "util/thread_pool.h"

namespace phonolid::core {

ExperimentConfig ExperimentConfig::preset(util::Scale scale,
                                          std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.scale = scale;
  cfg.corpus = corpus::CorpusConfig::preset(scale, seed);
  cfg.frontends = default_frontends(scale);
  cfg.vsm.svm.C = 1.0;
  cfg.vsm.svm.max_epochs = 60;
  cfg.vsm.svm.epsilon = 0.05;
  cfg.vsm.seed = seed;
  return cfg;
}

std::unique_ptr<Experiment> Experiment::build(const ExperimentConfig& config) {
  PHONOLID_SPAN("experiment_build");
  auto exp = std::unique_ptr<Experiment>(new Experiment());
  exp->config_ = config;
  pipeline::ArtifactStore store(
      pipeline::ArtifactStore::resolve_root(config.cache_dir));
  exp->cache_root_ = store.root();
  if (store.enabled()) {
    PHONOLID_INFO("core") << "artifact store at " << store.root();
  }
  {
    PHONOLID_SPAN("corpus");
    exp->corpus_ = corpus::LreCorpus::build(config.corpus);
  }
  const corpus::LreCorpus& corpus = exp->corpus_;
  const std::size_t k = corpus.num_target_languages();

  // Labels come from the corpus metadata: no audio is rendered unless a
  // stage below misses and reads it.
  const auto labels = [](const std::vector<corpus::UtteranceInfo>& info) {
    std::vector<std::int32_t> y;
    y.reserve(info.size());
    for (const auto& u : info) y.push_back(u.language);
    return y;
  };
  exp->train_labels_ = labels(corpus.vsm_train_info());
  exp->dev_labels_ = labels(corpus.dev_info());
  exp->test_labels_ = labels(corpus.test_info());

  const std::size_t q = config.frontends.size();
  exp->subsystems_.resize(q);
  exp->train_svs_.resize(q);
  exp->dev_svs_.resize(q);
  exp->test_svs_.resize(q);
  exp->baseline_vsms_.resize(q);
  exp->baseline_.resize(q);

  // Three phases, each pulling its stage products from the artifact store
  // when the key matches (see core/stage_cache.h for the invalidation
  // chain):
  //   1. every front end, trained or loaded, with its supervectors looked up;
  //   2. one utterance-major decode of vsm_train/dev/test for the front ends
  //      whose supervectors missed, computing each distinct feature config
  //      once per utterance;
  //   3. the baseline VSMs.
  // Phases 1 and 3 run their stages concurrently; each writes only its
  // front ends' slots and all randomness derives from (seed, salt).  Only
  // the two miss paths read audio, so only they render it: a training miss
  // its native language's am_train split, phase 2 vsm_train/dev/test.
  const pipeline::StageKey corpus_key =
      corpus_stage_key(config.corpus, config.scale, config.seed);
  std::vector<pipeline::StageKey> sv_keys(q);
  std::vector<DecodedSupervectors> decoded(q);
  std::vector<char> decoded_hit(q, 0);  // not vector<bool>: written in parallel
  const auto load_front_end = [&](std::size_t s) {
    FrontEndSpec spec = config.frontends[s];
    // The 1-best ablation flows through the supervector builder config.
    spec.use_lattice_counts = config.use_lattice_counts;

    const pipeline::StageKey fe_key =
        frontend_stage_key(corpus_key, spec, config.seed);
    TrainedFrontEnd fe = store.get_or_compute<TrainedFrontEnd>(
        fe_key,
        [](std::istream& in) { return TrainedFrontEnd::deserialize(in); },
        [](std::ostream& out, const TrainedFrontEnd& v) { v.serialize(out); },
        [&] { return Subsystem::train_front_end(corpus, spec, config.seed); });
    auto sub = Subsystem::assemble(corpus, spec, std::move(fe));
    sub->set_batch_chunk_samples(config.batch_chunk_samples);

    sv_keys[s] = supervectors_stage_key(fe_key);
    if (store.enabled()) {
      decoded_hit[s] = store.load(sv_keys[s], [&](std::istream& in) {
        decoded[s] = DecodedSupervectors::deserialize(in);
      });
    }
    exp->subsystems_[s] = std::move(sub);
  };
  // One phase-1 stage per native language: a training miss renders its
  // native language's am_train split on first access, and no two pool tasks
  // may first-access one split (corpus/dataset.h), so front ends that share
  // a native language load or train one after another.
  std::map<std::size_t, std::vector<std::size_t>> by_native;
  for (std::size_t s = 0; s < q; ++s) {
    by_native[config.frontends[s].native_language].push_back(s);
  }
  pipeline::StageRunner runner;
  for (const auto& entry : by_native) {
    const std::vector<std::size_t>& members = entry.second;
    runner.add("frontend/" + config.frontends[members.front()].name,
               [&load_front_end, members] {
                 for (const std::size_t s : members) load_front_end(s);
               });
  }
  runner.run_all();

  std::vector<Subsystem*> missed;
  std::vector<std::size_t> missed_index;
  for (std::size_t s = 0; s < q; ++s) {
    if (decoded_hit[s] == 0) {
      missed.push_back(exp->subsystems_[s].get());
      missed_index.push_back(s);
    }
  }
  if (!missed.empty()) {
    std::vector<DecodedSupervectors> fresh =
        decode_splits(missed, corpus, config.batch_chunk_samples);
    util::parallel_for(0, missed.size(), [&](std::size_t j) {
      const std::size_t s = missed_index[j];
      decoded[s] = std::move(fresh[j]);
      store.save(sv_keys[s], [&](std::ostream& out) {
        decoded[s].serialize(out);
      });
    });
  }

  for (std::size_t s = 0; s < q; ++s) {
    runner.add("vsm/" + config.frontends[s].name, [&, s] {
      Subsystem& sub = *exp->subsystems_[s];
      DecodedSupervectors& ds = decoded[s];
      sub.set_tfllr(ds.tfllr);

      // Baseline VSM (paper step (b)) and score matrices (Eq. 8-9).
      svm::VsmTrainConfig vsm_cfg = config.vsm;
      vsm_cfg.seed = util::derive_stream(config.seed, 0xF000 + s);
      const pipeline::StageKey vsm_key =
          vsm_stage_key(sv_keys[s], vsm_cfg, vsm_cfg.seed, k);
      svm::VsmModel vsm = store.get_or_compute<svm::VsmModel>(
          vsm_key,
          [](std::istream& in) { return svm::VsmModel::deserialize(in); },
          [](std::ostream& out, const svm::VsmModel& v) { v.serialize(out); },
          [&] {
            return svm::VsmModel::train(ds.train, exp->train_labels_, k,
                                        sub.supervector_dim(), vsm_cfg);
          });

      exp->baseline_[s].dev = vsm.score_all(ds.dev);
      exp->baseline_[s].test = vsm.score_all(ds.test);
      exp->train_svs_[s] = std::move(ds.train);
      exp->dev_svs_[s] = std::move(ds.dev);
      exp->test_svs_[s] = std::move(ds.test);
      exp->baseline_vsms_[s] = std::move(vsm);
      PHONOLID_INFO("core") << "baseline VSM ready for " << sub.name();
    });
  }
  runner.run_all();

  // Votes over the pooled test set (Eq. 10-13).
  std::vector<const util::Matrix*> test_scores;
  test_scores.reserve(q);
  for (const auto& b : exp->baseline_) test_scores.push_back(&b.test);
  exp->votes_ = compute_votes(test_scores, config.vote_criterion);
  exp->init_ledger();
  return exp;
}

void Experiment::init_ledger() {
  ledger_.num_classes = static_cast<std::uint32_t>(num_languages());
  ledger_.num_subsystems = static_cast<std::uint32_t>(subsystems_.size());
  ledger_.languages.clear();
  for (const corpus::LanguageSpec& spec : corpus_.target_languages()) {
    ledger_.languages.push_back(spec.name());
  }
  ledger_.scale = util::to_string(config_.scale);
  ledger_.seed = config_.seed;
  ledger_.entries.assign(corpus_.test_info().size(), obs::LedgerEntry{});
  const std::size_t k = num_languages();
  for (std::size_t j = 0; j < ledger_.entries.size(); ++j) {
    obs::LedgerEntry& e = ledger_.entries[j];
    const corpus::UtteranceInfo& u = corpus_.test_info()[j];
    e.utt = j;
    e.corpus_id = u.id;
    e.true_label = u.language;
    e.tier = corpus::to_string(u.tier);
    e.scores.resize(baseline_.size());
    for (std::size_t q = 0; q < baseline_.size(); ++q) {
      auto row = baseline_[q].test.row(j);
      e.scores[q].assign(k, 0.0);
      for (std::size_t c = 0; c < k; ++c) e.scores[q][c] = row[c];
    }
  }
}

std::vector<SubsystemScores> Experiment::run_dba(
    std::size_t min_votes, DbaMode mode,
    std::vector<svm::VsmModel>* models_out) const {
  return run_dba_selection(select_trdba(votes_, min_votes), mode,
                           /*votes=*/nullptr, models_out);
}

VoteResult Experiment::votes_for(const std::vector<SubsystemScores>& blocks,
                                 VoteCriterion criterion) const {
  std::vector<const util::Matrix*> test_scores;
  test_scores.reserve(blocks.size());
  for (const auto& b : blocks) test_scores.push_back(&b.test);
  return compute_votes(test_scores, criterion);
}

std::vector<SubsystemScores> Experiment::run_dba_selection(
    const TrdbaSelection& selection, DbaMode mode, const VoteResult* votes,
    std::vector<svm::VsmModel>* models_out) const {
  obs::Span span("dba_round");
  const std::size_t k = num_languages();
  std::vector<SubsystemScores> out(subsystems_.size());
  const std::size_t trdba_size =
      selection.utt_index.size() +
      (mode == DbaMode::kM2 ? train_labels_.size() : 0);
  const DbaRoundStats stats = record_dba_round(
      selection, mode, trdba_size, votes != nullptr ? *votes : votes_);
  span.annotate("round", static_cast<std::int64_t>(stats.round));
  span.annotate("trdba", static_cast<std::int64_t>(trdba_size));
  span.annotate("adopted", static_cast<std::int64_t>(stats.utts_adopted));
  span.annotate("flips", static_cast<std::int64_t>(stats.label_flips));
  if (selection.utt_index.empty() && mode == DbaMode::kM1) {
    // Nothing adopted: fall back to the baseline models' scores (an empty
    // SVM training set is undefined), mirroring a no-op boosting pass.
    if (models_out != nullptr) {
      models_out->insert(models_out->end(), baseline_vsms_.begin(),
                         baseline_vsms_.end());
    }
    return baseline_;
  }
  for (std::size_t q = 0; q < subsystems_.size(); ++q) {
    std::vector<const phonotactic::SparseVec*> x;
    std::vector<std::int32_t> y;
    compose_trdba(mode, selection, test_svs_[q], train_svs_[q], train_labels_,
                  x, y);
    svm::VsmTrainConfig cfg = config_.vsm;
    cfg.seed = util::derive_stream(
        config_.seed, 0xF100 + q * 16 + selection.utt_index.size() +
                          (mode == DbaMode::kM2 ? 0x1000u : 0u));
    svm::VsmModel model = svm::VsmModel::train(
        x, y, k, subsystems_[q]->supervector_dim(), cfg);
    out[q].dev = model.score_all(dev_svs_[q]);
    out[q].test = model.score_all(test_svs_[q]);
    if (models_out != nullptr) models_out->push_back(std::move(model));
  }
  return out;
}

EvalResult Experiment::evaluate(
    const std::vector<const SubsystemScores*>& blocks,
    std::vector<double> weights) const {
  return evaluate_with(fit_fusion(blocks, std::move(weights)), blocks);
}

backend::ScoreFusion Experiment::fit_fusion(
    const std::vector<const SubsystemScores*>& blocks,
    std::vector<double> weights) const {
  if (blocks.empty()) throw std::invalid_argument("evaluate: no score blocks");
  // LDA-MMI calibration trained on the pooled dev set (paper step g); the
  // pooled fit is markedly more stable than per-tier fits at small scales.
  std::vector<util::Matrix> dev_blocks(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    dev_blocks[b] = blocks[b]->dev;
  }
  backend::ScoreFusion fusion;
  fusion.fit(dev_blocks, dev_labels_, num_languages(), std::move(weights),
             config_.fusion);
  return fusion;
}

EvalResult Experiment::evaluate_with(
    const backend::ScoreFusion& fusion,
    const std::vector<const SubsystemScores*>& blocks) const {
  if (blocks.empty()) throw std::invalid_argument("evaluate: no score blocks");
  const std::size_t k = num_languages();
  EvalResult result;

  for (std::size_t tier = 0; tier < corpus::kNumTiers; ++tier) {
    const auto dt = static_cast<corpus::DurationTier>(tier);
    const std::vector<std::size_t> test_idx = corpus_.test_indices(dt);
    if (test_idx.empty()) continue;

    std::vector<util::Matrix> test_blocks(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      test_blocks[b].resize(test_idx.size(), k);
      for (std::size_t i = 0; i < test_idx.size(); ++i) {
        auto src = blocks[b]->test.row(test_idx[i]);
        std::copy(src.begin(), src.end(), test_blocks[b].row(i).begin());
      }
    }
    std::vector<std::int32_t> test_y(test_idx.size());
    for (std::size_t i = 0; i < test_idx.size(); ++i) {
      test_y[i] = test_labels_[test_idx[i]];
    }

    const util::Matrix log_post = fusion.apply(test_blocks);
    const util::Matrix llr = eval::log_posteriors_to_llr(log_post);

    const eval::TrialSet trials = eval::TrialSet::from_scores(llr, test_y);
    result.tier[tier].eer = eval::equal_error_rate(trials);
    result.tier[tier].cavg = eval::cavg(llr, test_y, k);
    result.det[tier] = eval::det_curve(trials);

    // Record the fused + calibrated LLRs in the decision ledger; each
    // evaluate() pass overwrites, so the ledger carries the last
    // evaluation's scores (deterministic given the caller's call order).
    std::lock_guard lock(dba_mutex_);
    if (ledger_.entries.size() == test_labels_.size()) {
      for (std::size_t i = 0; i < test_idx.size(); ++i) {
        auto row = llr.row(i);
        std::vector<double>& fused = ledger_.entries[test_idx[i]].fused_llr;
        fused.assign(k, 0.0);
        for (std::size_t c = 0; c < k; ++c) fused[c] = row[c];
      }
    }
  }
  return result;
}

EvalResult Experiment::evaluate_single(const SubsystemScores& block) const {
  return evaluate({&block});
}

DbaRoundStats Experiment::record_dba_round(const TrdbaSelection& selection,
                                           DbaMode mode,
                                           std::size_t trdba_size,
                                           const VoteResult& votes) const {
  DbaRoundStats stats;
  stats.mode = mode;
  stats.min_votes = selection.min_votes;
  stats.votes_cast = selection.votes_cast;
  stats.utts_adopted = selection.utt_index.size();
  stats.trdba_size = trdba_size;
  stats.selection_error = selection_error_rate(selection, test_labels_);

  std::lock_guard lock(dba_mutex_);
  stats.round = dba_rounds_.size() + 1;
  for (std::size_t i = 0; i < selection.utt_index.size(); ++i) {
    const auto it = last_adopted_.find(selection.utt_index[i]);
    if (it != last_adopted_.end() && it->second != selection.label[i]) {
      ++stats.label_flips;
    }
  }

  // Per-utterance ledger rounds.  Vote bits/margins are only attributable
  // when the VoteResult covers the pooled test set with matching shape
  // (hand-built selections over subsets skip the per-utterance record).
  std::unordered_map<std::uint32_t, std::int32_t> hyp;
  hyp.reserve(selection.utt_index.size());
  for (std::size_t i = 0; i < selection.utt_index.size(); ++i) {
    hyp.emplace(selection.utt_index[i], selection.label[i]);
  }
  if (votes.num_utts == ledger_.entries.size() &&
      votes.num_classes == ledger_.num_classes) {
    for (std::size_t j = 0; j < votes.num_utts; ++j) {
      obs::LedgerRound r;
      r.round = static_cast<std::uint32_t>(stats.round);
      r.mode = to_string(mode);
      r.min_votes = static_cast<std::uint32_t>(selection.min_votes);
      std::int32_t best = -1;
      std::uint32_t best_count = 0;
      bool tie = false;
      for (std::size_t c = 0; c < votes.num_classes; ++c) {
        const std::uint32_t cnt = votes.count(j, c);
        if (cnt > best_count) {
          best = static_cast<std::int32_t>(c);
          best_count = cnt;
          tie = false;
        } else if (cnt == best_count && cnt > 0) {
          tie = true;
        }
      }
      r.best_class = best;
      r.vote_count = best_count;
      r.tie = tie;
      if (best >= 0) {
        const auto b = static_cast<std::size_t>(best);
        r.votes.resize(votes.num_subsystems);
        r.margins.resize(votes.num_subsystems);
        for (std::size_t q = 0; q < votes.num_subsystems; ++q) {
          r.votes[q] = votes.vote(q, j, b) ? 1 : 0;
          r.margins[q] = votes.margin(q, j, b);
        }
      }
      const auto it = hyp.find(static_cast<std::uint32_t>(j));
      if (it != hyp.end()) {
        r.adopted = true;
        r.hyp_label = it->second;
        r.correct = it->second == test_labels_[j];
        const auto prev = last_adopted_.find(it->first);
        r.flip = prev != last_adopted_.end() && prev->second != it->second;
      }
      ledger_.entries[j].rounds.push_back(std::move(r));
    }
  }

  last_adopted_.clear();
  for (std::size_t i = 0; i < selection.utt_index.size(); ++i) {
    last_adopted_.emplace(selection.utt_index[i], selection.label[i]);
  }
  dba_rounds_.push_back(stats);
  PHONOLID_EVENT("dba_round_recorded", "round",
                 static_cast<std::int64_t>(stats.round), "adopted",
                 static_cast<std::int64_t>(stats.utts_adopted));
  return stats;
}

std::vector<DbaRoundStats> Experiment::dba_rounds() const {
  std::lock_guard lock(dba_mutex_);
  return dba_rounds_;
}

obs::DecisionLedger Experiment::ledger() const {
  std::lock_guard lock(dba_mutex_);
  return ledger_;
}

void Experiment::write_ledger(const std::string& path) const {
  ledger().write_jsonl_file(path);
  PHONOLID_INFO("core") << "wrote decision ledger to " << path;
}

obs::Json Experiment::dba_report() const {
  obs::Json rounds = obs::Json::array();
  for (const DbaRoundStats& r : dba_rounds()) {
    obs::Json entry = obs::Json::object();
    entry["round"] = obs::Json(r.round);
    entry["mode"] = obs::Json(to_string(r.mode));
    entry["min_votes"] = obs::Json(r.min_votes);
    entry["votes_cast"] = obs::Json(r.votes_cast);
    entry["utts_adopted"] = obs::Json(r.utts_adopted);
    entry["trdba_size"] = obs::Json(r.trdba_size);
    entry["label_flips"] = obs::Json(r.label_flips);
    entry["selection_error"] = obs::Json(r.selection_error);
    rounds.push_back(std::move(entry));
  }
  obs::Json dba = obs::Json::object();
  dba["rounds"] = std::move(rounds);
  return dba;
}

void Experiment::write_report(const std::string& path,
                              const std::string& command,
                              obs::Json extra) const {
  obs::ReportMeta meta;
  meta.tool = "phonolid";
  meta.command = command;
  meta.scale = util::to_string(config_.scale);
  meta.seed = config_.seed;
  meta.threads = util::ThreadPool::global().num_threads();

  obs::Json experiment = obs::Json::object();
  experiment["num_subsystems"] = obs::Json(num_subsystems());
  experiment["num_languages"] = obs::Json(num_languages());
  experiment["train_utterances"] = obs::Json(train_labels_.size());
  experiment["dev_utterances"] = obs::Json(dev_labels_.size());
  experiment["test_utterances"] = obs::Json(test_labels_.size());
  experiment["use_lattice_counts"] = obs::Json(config_.use_lattice_counts);

  obs::Json cache = obs::Json::object();
  cache["enabled"] = obs::Json(!cache_root_.empty());
  cache["dir"] = obs::Json(cache_root_);
  cache["hits"] = obs::Json(obs::Metrics::counter("pipeline.cache.hits").value());
  cache["misses"] =
      obs::Json(obs::Metrics::counter("pipeline.cache.misses").value());
  cache["evictions"] =
      obs::Json(obs::Metrics::counter("pipeline.cache.evictions").value());
  cache["writes"] =
      obs::Json(obs::Metrics::counter("pipeline.cache.writes").value());

  obs::Json merged = obs::Json::object();
  merged["experiment"] = std::move(experiment);
  merged["dba"] = dba_report();
  merged["cache"] = std::move(cache);
  // The "quality" section + float gauges (-> metrics.values / Prometheus)
  // are derived from the decision ledger, so every report that went through
  // an Experiment can be gated on calibration and adoption quality.
  if (const obs::DecisionLedger led = ledger(); !led.empty()) {
    const eval::DiagnosticsResult diag = eval::compute_diagnostics(led);
    eval::publish_quality_gauges(diag);
    merged["quality"] = eval::diagnostics_json(diag);
  }
  for (auto& [key, value] : extra.as_object()) {
    merged[key] = std::move(value);
  }
  obs::Json report = obs::build_report(meta, std::move(merged));
  // build_report cannot know the utterance count; normalize the energy
  // total by this experiment's test-set size so runs at different scales
  // compare on a per-utterance basis.
  if (obs::Json* energy = const_cast<obs::Json*>(report.find("energy"));
      energy != nullptr && !test_labels_.empty()) {
    if (const obs::Json* total = energy->find("total_joules");
        total != nullptr && total->is_number()) {
      const double per_utt =
          total->as_double() / static_cast<double>(test_labels_.size());
      (*energy)["joules_per_test_utterance"] =
          obs::Json(std::round(per_utt * 1e6) / 1e6);
    }
  }
  obs::write_report_file(path, report);
  PHONOLID_INFO("core") << "wrote run report to " << path;
}

}  // namespace phonolid::core
