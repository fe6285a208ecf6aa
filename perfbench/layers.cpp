// Traced layer decomposition: the per-utterance scoring chain recomposed
// from each layer's public functions (features -> AM -> Viterbi ->
// supervector -> TFLLR -> VSM -> fusion -> LLR), timed call by call and
// checked bit for bit against the program's own results.  If the two ever
// differ, the per-layer numbers would describe a different program, so the
// run fails.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common.h"
#include "core/stage_cache.h"
#include "decoder/phone_loop_decoder.h"
#include "dsp/features.h"
#include "eval/metrics.h"
#include "obs/energy.h"
#include "phonotactic/supervector.h"
#include "pipeline/artifact_store.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {

namespace {

template <typename Write>
std::string bytes_of(const Write& write) {
  std::ostringstream out;
  write(out);
  return out.str();
}

bool same_sv(const phonotactic::SparseVec& a, const phonotactic::SparseVec& b) {
  return a.indices() == b.indices() && a.values().size() == b.values().size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(float)) == 0;
}

bool same_rows(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_matrix(const util::Matrix& a, const util::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(float)) == 0;
}

/// One front end's layer objects, built the way Subsystem::assemble builds
/// them, around a front end deserialized from the subsystem's own bytes.
struct LayerChain {
  core::FrontEndSpec spec;
  core::TrainedFrontEnd fe;
  std::unique_ptr<dsp::FeaturePipeline> features;
  std::unique_ptr<decoder::PhoneLoopDecoder> decoder;
  std::unique_ptr<phonotactic::SupervectorBuilder> sv;
  const phonotactic::TfllrScaler* tfllr = nullptr;
};

std::unique_ptr<LayerChain> make_chain(const core::Subsystem& sub,
                                       double sample_rate) {
  auto c = std::make_unique<LayerChain>();
  c->spec = sub.spec();
  std::stringstream wire;
  sub.serialize_front_end(wire);
  c->fe = core::TrainedFrontEnd::deserialize(wire);
  dsp::FeaturePipelineConfig fcfg;
  fcfg.kind = c->spec.feature;
  fcfg.mfcc.sample_rate = sample_rate;
  fcfg.plp.sample_rate = sample_rate;
  c->features = std::make_unique<dsp::FeaturePipeline>(fcfg);
  c->decoder = std::make_unique<decoder::PhoneLoopDecoder>(
      *c->fe.model, am::HmmTopology{c->spec.num_phones, 3},
      c->fe.transitions(), c->spec.decoder);
  phonotactic::SupervectorConfig sv_cfg;
  sv_cfg.counts.max_order = c->spec.ngram_order;
  sv_cfg.counts.acoustic_scale = c->spec.decoder.acoustic_scale;
  sv_cfg.use_lattice = c->spec.use_lattice_counts;
  c->sv = std::make_unique<phonotactic::SupervectorBuilder>(
      phonotactic::NgramIndexer(c->spec.num_phones, c->spec.ngram_order),
      sv_cfg);
  c->tfllr = &sub.tfllr();
  return c;
}

const char* feature_span(dsp::FeatureKind kind) {
  return kind == dsp::FeatureKind::kMfcc ? "dsp.FeaturePipeline::process/mfcc"
                                         : "dsp.FeaturePipeline::process/plp";
}

const char* family_name(core::ModelFamily f) {
  switch (f) {
    case core::ModelFamily::kAnnHmm: return "ann";
    case core::ModelFamily::kDnnHmm: return "dnn";
    case core::ModelFamily::kGmmHmm: return "gmm";
  }
  return "?";
}

const char* am_span(core::ModelFamily f) {
  switch (f) {
    case core::ModelFamily::kAnnHmm: return "am.AcousticModel::score/ann";
    case core::ModelFamily::kDnnHmm: return "am.AcousticModel::score/dnn";
    case core::ModelFamily::kGmmHmm: return "am.AcousticModel::score/gmm";
  }
  return "am.AcousticModel::score";
}

/// Durations, in ms, of the spans named `name` opened at index `from` or
/// later.
std::vector<double> durations_ms(std::size_t from, const char* name) {
  std::vector<double> out;
  const std::vector<SpanRecord> spans = SpanLog::snapshot();
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) {
      out.push_back(1e3 * (spans[i].end_s - spans[i].start_s));
    }
  }
  return out;
}

svm::VsmTrainConfig baseline_vsm_config(const core::ExperimentConfig& cfg,
                                        std::size_t s) {
  svm::VsmTrainConfig vsm = cfg.vsm;
  vsm.seed = util::derive_stream(cfg.seed, 0xF000 + s);
  return vsm;
}

}  // namespace

void run_layer_decomposition(const TracedModel& model, const Options& opt,
                             Report& report) {
  const OfflineRun& run = *model.run;
  const core::Experiment& exp = *run.exp;
  const core::ExperimentConfig& cfg = exp.config();
  const corpus::Dataset& test = exp.corpus().test();
  const std::size_t n = test.size();
  const std::size_t q = exp.num_subsystems();
  const std::size_t k = exp.num_languages();
  const double sample_rate = cfg.corpus.sample_rate;

  // Every layer call below runs under a span; the layer metrics are the
  // spans' summed durations, taken from the log at the end.
  SpanLog::enable(true);
  const std::size_t mark = SpanLog::size();

  // corpus: synthesis of this seed's corpus.
  corpus::LreCorpus corpus;
  {
    Span span("corpus.LreCorpus::build");
    corpus = corpus::LreCorpus::build(cfg.corpus);
  }
  bool same_corpus = corpus.test().size() == n;
  for (std::size_t j = 0; same_corpus && j < n; ++j) {
    same_corpus = corpus.test()[j].samples == test[j].samples;
  }
  report.check(same_corpus, "corpus synthesis reproduces the test set");

  // am: the six front-end trainings.
  std::vector<core::TrainedFrontEnd> trained(q);
  bool same_fe = true;
  for (std::size_t s = 0; s < q; ++s) {
    {
      Span span("am.Subsystem::train_front_end", s + 1);
      trained[s] = core::Subsystem::train_front_end(
          corpus, exp.subsystem(s).spec(), cfg.seed);
    }
    same_fe = same_fe &&
              bytes_of([&](std::ostream& o) { trained[s].serialize(o); }) ==
                  bytes_of([&](std::ostream& o) {
                    exp.subsystem(s).serialize_front_end(o);
                  });
  }
  report.check(same_fe, "train_front_end reproduces every front end");

  // The per-utterance chain, one layer call at a time.  It runs on this
  // thread so each call's own pool fan-out is all the pool runs meanwhile.
  std::vector<std::unique_ptr<LayerChain>> chains;
  for (std::size_t s = 0; s < q; ++s) {
    chains.push_back(make_chain(exp.subsystem(s), sample_rate));
  }
  const std::size_t num_heads = run.models.size();
  std::vector<std::vector<phonotactic::SparseVec>> svs(
      q, std::vector<phonotactic::SparseVec>(n));
  std::vector<util::Matrix> blocks(num_heads, util::Matrix(n, k));
  // Audio seconds each feature kind and model family processed.
  std::map<dsp::FeatureKind, double> feat_audio;
  std::map<core::ModelFamily, double> am_audio;
  double chain_audio = 0;
  for (std::size_t j = 0; j < n; ++j) {
    Span utt_span("chain.utterance", j + 1);
    const double audio =
        static_cast<double>(test[j].samples.size()) / sample_rate;
    for (std::size_t s = 0; s < q; ++s) {
      LayerChain& c = *chains[s];
      util::Matrix feats, scores;
      decoder::Lattice lattice;
      {
        Span span(feature_span(c.spec.feature), j + 1);
        feats = c.features->process(test[j].samples);
      }
      {
        Span span(am_span(c.spec.family), j + 1);
        c.fe.model->score(feats, scores);
      }
      {
        Span span("decoder.PhoneLoopDecoder::decode_from_scores", j + 1);
        lattice = c.decoder->decode_from_scores(scores);
      }
      {
        Span span("phonotactic.supervector+tfllr", j + 1);
        svs[s][j] = c.sv->build(lattice);
        if (c.spec.use_tfllr) c.tfllr->transform(svs[s][j]);
      }
      feat_audio[c.spec.feature] += audio;
      am_audio[c.spec.family] += audio;
      chain_audio += audio;
    }
    Span span("svm.VsmModel::score", j + 1);
    for (std::size_t h = 0; h < num_heads; ++h) {
      run.models[h].score(svs[h % q][j], blocks[h].row(j));
    }
  }
  Span fusion_span("backend.ScoreFusion::apply+eval.llr");
  const util::Matrix llr =
      eval::log_posteriors_to_llr(run.fusion.apply(blocks));
  fusion_span.end();

  // Decomposition checks: the recomposed supervectors against the program's
  // cached ones and its own Subsystem::process; the recomposed LLRs against
  // the ledger and FrozenModel::score_batch.
  bool sv_cached = true, sv_process = true;
  for (std::size_t s = 0; s < q; ++s) {
    Span span("check.Subsystem::process_all");
    const auto ref = exp.subsystem(s).process_all(test);
    for (std::size_t j = 0; j < n; ++j) {
      sv_cached = sv_cached && same_sv(svs[s][j], exp.test_svs(s)[j]);
      sv_process = sv_process && same_sv(svs[s][j], ref[j]);
    }
  }
  report.check(sv_cached, "recomposed supervectors equal the experiment's");
  report.check(sv_process, "recomposed supervectors equal Subsystem::process");
  const auto expected = expected_llrs(exp);
  bool llr_ledger = true;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t c = 0; c < k; ++c) {
      llr_ledger = llr_ledger && expected[j].size() == k &&
                   static_cast<double>(llr.row(j)[c]) == expected[j][c];
    }
  }
  report.check(llr_ledger, "recomposed LLRs equal the ledger's fused LLRs");

  // core: FrozenModel::score_batch, batches of one and of eight.
  const core::FrozenModel& frozen = *model.frozen;
  bool llr_frozen = true;
  for (std::size_t j = 0; j < n; ++j) {
    core::BatchScore b;
    {
      Span span("core.FrozenModel::score_batch/1", j + 1);
      b = frozen.score_batch({std::span<const float>(test[j].samples)});
    }
    llr_frozen = llr_frozen && same_rows(b.llr.row(0), llr.row(j));
  }
  for (std::size_t j0 = 0; j0 + 8 <= n; j0 += 8) {
    std::vector<std::span<const float>> batch;
    for (std::size_t j = j0; j < j0 + 8; ++j) batch.emplace_back(test[j].samples);
    core::BatchScore b;
    {
      Span span("core.FrozenModel::score_batch/8", j0 + 1);
      b = frozen.score_batch(batch);
    }
    for (std::size_t i = 0; i < 8; ++i) {
      llr_frozen = llr_frozen && same_rows(b.llr.row(i), llr.row(j0 + i));
    }
  }
  report.check(llr_frozen, "recomposed LLRs equal FrozenModel::score_batch");

  // svm: the six baseline VSM trainings.
  bool same_vsm = true;
  for (std::size_t s = 0; s < q; ++s) {
    svm::VsmModel vsm;
    {
      Span span("svm.VsmModel::train", s + 1);
      vsm = svm::VsmModel::train(exp.train_svs(s), exp.train_labels(), k,
                                 exp.subsystem(s).supervector_dim(),
                                 baseline_vsm_config(cfg, s));
    }
    same_vsm = same_vsm &&
               bytes_of([&](std::ostream& o) { vsm.serialize(o); }) ==
                   bytes_of([&](std::ostream& o) {
                     exp.baseline_vsm(s).serialize(o);
                   });
  }
  report.check(same_vsm, "VsmModel::train reproduces the baseline VSMs");

  // core / backend / eval: DBA re-training, fusion fit, evaluation.
  std::vector<core::SubsystemScores> m1, m2;
  {
    Span span("core.Experiment::run_dba");
    m1 = exp.run_dba(run.min_votes, core::DbaMode::kM1);
    m2 = exp.run_dba(run.min_votes, core::DbaMode::kM2);
  }
  bool same_dba = m1.size() == run.m1.size() && m2.size() == run.m2.size();
  for (std::size_t s = 0; same_dba && s < m1.size(); ++s) {
    same_dba = same_matrix(m1[s].test, run.m1[s].test) &&
               same_matrix(m1[s].dev, run.m1[s].dev) &&
               same_matrix(m2[s].test, run.m2[s].test) &&
               same_matrix(m2[s].dev, run.m2[s].dev);
  }
  report.check(same_dba, "run_dba is deterministic");
  backend::ScoreFusion fusion;
  const auto dba_blocks = run.dba_blocks();
  {
    Span span("backend.Experiment::fit_fusion");
    fusion = exp.fit_fusion(dba_blocks, run.weights);
  }
  {
    Span span("eval.Experiment::evaluate_with");
    (void)exp.evaluate_with(fusion, dba_blocks);
  }
  report.check(bytes_of([&](std::ostream& o) { fusion.serialize(o); }) ==
                   bytes_of([&](std::ostream& o) { run.fusion.serialize(o); }),
               "fit_fusion is deterministic");

  // pipeline: every stage artifact of the run, loaded from its store on the
  // stage keys of core/stage_cache.h and saved into a fresh one.
  pipeline::ArtifactStore store(model.store_dir);
  const std::string resave_dir = opt.work_dir + "/store-resave";
  std::filesystem::remove_all(resave_dir);
  pipeline::ArtifactStore resave(resave_dir);
  bool all_hit = true, same_artifacts = true;
  const pipeline::StageKey corpus_key =
      core::corpus_stage_key(cfg.corpus, cfg.scale, cfg.seed);
  for (std::size_t s = 0; s < q; ++s) {
    const core::FrontEndSpec& spec = exp.subsystem(s).spec();
    const svm::VsmTrainConfig vsm_cfg = baseline_vsm_config(cfg, s);
    const pipeline::StageKey fe_key =
        core::frontend_stage_key(corpus_key, spec, cfg.seed);
    const pipeline::StageKey sv_key = core::supervectors_stage_key(fe_key);
    const pipeline::StageKey vsm_key =
        core::vsm_stage_key(sv_key, vsm_cfg, vsm_cfg.seed, k);
    core::TrainedFrontEnd fe;
    core::DecodedSupervectors ds;
    svm::VsmModel vsm;
    {
      Span span("pipeline.ArtifactStore::load", s + 1);
      all_hit = store.load(fe_key, [&](std::istream& in) {
                  fe = core::TrainedFrontEnd::deserialize(in);
                }) && all_hit;
      all_hit = store.load(sv_key, [&](std::istream& in) {
                  ds = core::DecodedSupervectors::deserialize(in);
                }) && all_hit;
      all_hit = store.load(vsm_key, [&](std::istream& in) {
                  vsm = svm::VsmModel::deserialize(in);
                }) && all_hit;
    }
    if (!all_hit) break;
    same_artifacts =
        same_artifacts &&
        bytes_of([&](std::ostream& o) { fe.serialize(o); }) ==
            bytes_of([&](std::ostream& o) { trained[s].serialize(o); }) &&
        ds.test.size() == n;
    for (std::size_t j = 0; same_artifacts && j < n; ++j) {
      same_artifacts = same_sv(ds.test[j], svs[s][j]);
    }
    Span span("pipeline.ArtifactStore::save", s + 1);
    resave.save(fe_key, [&](std::ostream& o) { fe.serialize(o); });
    resave.save(sv_key, [&](std::ostream& o) { ds.serialize(o); });
    resave.save(vsm_key, [&](std::ostream& o) { vsm.serialize(o); });
  }
  report.check(all_hit, "every stage artifact loads from the run's store");
  report.check(same_artifacts, "stored artifacts equal the recomposed products");

  // The layer times, from the spans of the calls above.
  const std::map<std::string, LayerTime> t = SpanLog::layer_times(mark);
  auto total_s = [&](const std::string& name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_s;
  };
  report.metric("corpus.build_s", total_s("corpus.LreCorpus::build"), "s");
  report.metric("am.train_s", total_s("am.Subsystem::train_front_end"), "s");
  report.metric("dsp.mfcc_s_per_audio_s",
                total_s(feature_span(dsp::FeatureKind::kMfcc)) /
                    feat_audio[dsp::FeatureKind::kMfcc],
                "s/s");
  report.metric("dsp.plp_s_per_audio_s",
                total_s(feature_span(dsp::FeatureKind::kPlp)) /
                    feat_audio[dsp::FeatureKind::kPlp],
                "s/s");
  for (const core::ModelFamily fam :
       {core::ModelFamily::kAnnHmm, core::ModelFamily::kDnnHmm,
        core::ModelFamily::kGmmHmm}) {
    report.metric(std::string("am.score_s_per_audio_s.") + family_name(fam),
                  total_s(am_span(fam)) / am_audio[fam], "s/s");
  }
  report.metric("decoder.viterbi_s_per_audio_s",
                total_s("decoder.PhoneLoopDecoder::decode_from_scores") /
                    chain_audio,
                "s/s");
  report.metric("phonotactic.supervector_s_per_audio_s",
                total_s("phonotactic.supervector+tfllr") / chain_audio, "s/s");
  report.metric("svm.train_s", total_s("svm.VsmModel::train"), "s");
  report.metric("svm.score_us_per_utt",
                1e6 * total_s("svm.VsmModel::score") / static_cast<double>(n),
                "us");
  const std::vector<double> batch1_ms =
      durations_ms(mark, "core.FrozenModel::score_batch/1");
  const std::vector<double> batch8_ms =
      durations_ms(mark, "core.FrozenModel::score_batch/8");
  report.metric("core.score_batch_ms.p50", order_statistic(batch1_ms, 0.50), "ms");
  report.metric("core.score_batch_ms.p99", order_statistic(batch1_ms, 0.99), "ms");
  report.metric("core.score_batch8_ms", median(batch8_ms), "ms");
  report.info("score_batch_samples", batch1_ms.size());
  report.metric("core.dba_s", total_s("core.Experiment::run_dba"), "s");
  report.metric("backend.fusion_fit_s",
                total_s("backend.Experiment::fit_fusion"), "s");
  report.metric("eval.evaluate_s", total_s("eval.Experiment::evaluate_with"),
                "s");
  report.metric("pipeline.artifact_load_s",
                total_s("pipeline.ArtifactStore::load"), "s");
  report.metric("pipeline.artifact_save_s",
                total_s("pipeline.ArtifactStore::save"), "s");
  report.metric("pipeline.artifact_bytes",
                static_cast<double>(resave.status().bytes), "bytes");

  // la: kernel GFLOPs of scoring the test set once, counted by the software
  // energy model (a count, independent of timing).
  ::setenv("PHONOLID_ENERGY", "software", 1);
  obs::Energy::init_from_env();
  const double gflop0 = obs::Energy::total_gflops();
  {
    std::vector<std::span<const float>> all;
    for (const auto& u : test) all.emplace_back(u.samples);
    Span span("la.gflop_pass");
    (void)frozen.score_batch(all);
  }
  report.metric("la.gflop", obs::Energy::total_gflops() - gflop0, "GFLOP");
}

}  // namespace perfbench
