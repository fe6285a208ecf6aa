#include "core/subsystem.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phonotactic/ngram_counts.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace phonolid::core {

const am::HmmTransitions& TrainedFrontEnd::transitions() const {
  switch (family) {
    case ModelFamily::kGmmHmm:
      return static_cast<const am::GmmHmmModel&>(*model).transitions();
    case ModelFamily::kAnnHmm:
    case ModelFamily::kDnnHmm:
      return static_cast<const am::NnHmmModel&>(*model).transitions();
  }
  throw std::logic_error("TrainedFrontEnd: unknown model family");
}

namespace {

/// "PTFE" wire format shared by TrainedFrontEnd::serialize (pre-assembly)
/// and Subsystem::serialize_front_end (post-assembly, for bundle freezing).
void write_front_end(std::ostream& out, ModelFamily family,
                     const am::PhoneSetMap& phone_map,
                     const am::AcousticModel& model) {
  util::BinaryWriter w(out);
  w.write_magic("PTFE", 1);
  w.write_u32(static_cast<std::uint32_t>(family));
  std::vector<std::uint32_t> mapping(phone_map.mapping().size());
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    mapping[i] = static_cast<std::uint32_t>(phone_map.mapping()[i]);
  }
  w.write_u32_vec(mapping);
  w.write_u64(phone_map.num_frontend_phones());
  switch (family) {
    case ModelFamily::kGmmHmm:
      static_cast<const am::GmmHmmModel&>(model).serialize(out);
      break;
    case ModelFamily::kAnnHmm:
    case ModelFamily::kDnnHmm:
      static_cast<const am::NnHmmModel&>(model).serialize(out);
      break;
  }
}

}  // namespace

void TrainedFrontEnd::serialize(std::ostream& out) const {
  write_front_end(out, family, phone_map, *model);
}

TrainedFrontEnd TrainedFrontEnd::deserialize(std::istream& in) {
  util::BinaryReader r(in);
  r.expect_magic("PTFE", 1);
  TrainedFrontEnd fe;
  const std::uint32_t family_tag = r.read_u32();
  if (family_tag > static_cast<std::uint32_t>(ModelFamily::kGmmHmm)) {
    throw util::SerializeError("TrainedFrontEnd: bad model family tag");
  }
  fe.family = static_cast<ModelFamily>(family_tag);
  const std::vector<std::uint32_t> mapping32 = r.read_u32_vec();
  std::vector<std::size_t> mapping(mapping32.begin(), mapping32.end());
  const std::uint64_t num_phones = r.read_u64();
  fe.phone_map =
      am::PhoneSetMap(std::move(mapping), static_cast<std::size_t>(num_phones));
  switch (fe.family) {
    case ModelFamily::kGmmHmm:
      fe.model =
          std::make_unique<am::GmmHmmModel>(am::GmmHmmModel::deserialize(in));
      break;
    case ModelFamily::kAnnHmm:
    case ModelFamily::kDnnHmm:
      fe.model =
          std::make_unique<am::NnHmmModel>(am::NnHmmModel::deserialize(in));
      break;
  }
  return fe;
}

namespace {

void serialize_split(util::BinaryWriter& w, std::ostream& out,
                     const std::vector<phonotactic::SparseVec>& split) {
  w.write_u64(split.size());
  for (const auto& sv : split) sv.serialize(out);
}

std::vector<phonotactic::SparseVec> deserialize_split(util::BinaryReader& r,
                                                      std::istream& in) {
  const std::uint64_t n = r.read_u64();
  // A split is bounded by the corpus size; anything bigger is corruption.
  if (n > (1ull << 24)) {
    throw util::SerializeError("DecodedSupervectors: split too large");
  }
  std::vector<phonotactic::SparseVec> split;
  split.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    split.push_back(phonotactic::SparseVec::deserialize(in));
  }
  return split;
}

}  // namespace

void DecodedSupervectors::serialize(std::ostream& out) const {
  util::BinaryWriter w(out);
  w.write_magic("PDSV", 1);
  tfllr.serialize(out);
  serialize_split(w, out, train);
  serialize_split(w, out, dev);
  serialize_split(w, out, test);
}

DecodedSupervectors DecodedSupervectors::deserialize(std::istream& in) {
  util::BinaryReader r(in);
  r.expect_magic("PDSV", 1);
  DecodedSupervectors ds;
  ds.tfllr = phonotactic::TfllrScaler::deserialize(in);
  ds.train = deserialize_split(r, in);
  ds.dev = deserialize_split(r, in);
  ds.test = deserialize_split(r, in);
  return ds;
}

TrainedFrontEnd Subsystem::train_front_end(const corpus::LreCorpus& corpus,
                                           const FrontEndSpec& spec,
                                           std::uint64_t seed) {
  PHONOLID_SPAN("train_front_end");
  const std::uint64_t sub_seed = util::derive_stream(seed, spec.seed_salt);
  TrainedFrontEnd fe;
  fe.family = spec.family;

  // 1. Front-end phone set.
  fe.phone_map =
      am::build_phone_map(corpus.inventory(), spec.num_phones, sub_seed);

  // 2. Feature pipeline (local: only needed to align the training audio).
  const dsp::FeaturePipeline features(
      feature_config(spec, corpus.config().sample_rate));

  // 3. Supervision: align the native-language aligned audio.  Each front end
  // aligns its own native-language set, so there are no features to share
  // with the other front ends here.
  if (spec.native_language >= corpus.native_languages().size()) {
    throw std::invalid_argument("Subsystem: native language out of range");
  }
  const corpus::Dataset& am_data = corpus.am_train(spec.native_language);
  std::vector<am::AlignedUtterance> aligned(am_data.size());
  util::parallel_for(0, am_data.size(), [&](std::size_t i) {
    aligned[i] = am::align_utterance(am_data[i], features, fe.phone_map);
  });

  // 4. Acoustic model per family.
  switch (spec.family) {
    case ModelFamily::kGmmHmm: {
      am::GmmHmmTrainConfig cfg;
      cfg.gmm.num_components = spec.gmm_components;
      cfg.seed = sub_seed;
      fe.model = std::make_unique<am::GmmHmmModel>(
          am::train_gmm_hmm(aligned, spec.num_phones, cfg));
      break;
    }
    case ModelFamily::kAnnHmm:
    case ModelFamily::kDnnHmm: {
      am::NnHmmTrainConfig cfg;
      cfg.nn.hidden_sizes = spec.hidden_sizes;
      cfg.score_gain = spec.nn_score_gain;
      cfg.seed = sub_seed;
      fe.model = std::make_unique<am::NnHmmModel>(
          am::train_nn_hmm(aligned, spec.num_phones, cfg));
      break;
    }
  }
  return fe;
}

std::unique_ptr<Subsystem> Subsystem::assemble(const corpus::LreCorpus& corpus,
                                               const FrontEndSpec& spec,
                                               TrainedFrontEnd front_end) {
  return assemble(corpus.config().sample_rate, spec, std::move(front_end));
}

std::unique_ptr<Subsystem> Subsystem::assemble(double sample_rate,
                                               const FrontEndSpec& spec,
                                               TrainedFrontEnd front_end) {
  return assemble(feature_config(spec, sample_rate), spec,
                  std::move(front_end));
}

dsp::FeaturePipelineConfig Subsystem::feature_config(const FrontEndSpec& spec,
                                                     double sample_rate) {
  dsp::FeaturePipelineConfig fcfg;
  fcfg.kind = spec.feature;
  fcfg.mfcc.sample_rate = sample_rate;
  fcfg.plp.sample_rate = sample_rate;
  return fcfg;
}

std::unique_ptr<Subsystem> Subsystem::assemble(
    const dsp::FeaturePipelineConfig& features, const FrontEndSpec& spec,
    TrainedFrontEnd front_end) {
  auto sub = std::unique_ptr<Subsystem>(new Subsystem());
  sub->spec_ = spec;
  sub->phone_map_ = std::move(front_end.phone_map);
  sub->features_ = std::make_unique<dsp::FeaturePipeline>(features);

  am::HmmTopology topology{spec.num_phones, 3};
  am::HmmTransitions transitions = front_end.transitions();
  sub->model_ = std::move(front_end.model);
  sub->decoder_ = std::make_unique<decoder::PhoneLoopDecoder>(
      *sub->model_, topology, std::move(transitions), spec.decoder);

  phonotactic::NgramIndexer indexer(spec.num_phones, spec.ngram_order);
  phonotactic::SupervectorConfig sv_cfg;
  sv_cfg.counts.max_order = spec.ngram_order;
  sv_cfg.counts.acoustic_scale = spec.decoder.acoustic_scale;
  sv_cfg.use_lattice = spec.use_lattice_counts;
  sub->builder_ = std::make_unique<phonotactic::SupervectorBuilder>(
      std::move(indexer), sv_cfg);
  return sub;
}

void Subsystem::fit_tfllr(std::vector<phonotactic::SparseVec>& train) {
  tfllr_ = phonotactic::TfllrScaler(builder_->dimension());
  for (const auto& sv : train) tfllr_.accumulate(sv);
  tfllr_.finalize();
  if (spec_.use_tfllr) {
    for (auto& sv : train) tfllr_.transform(sv);
  }
}

namespace {

/// Raw (pre-TFLLR) supervectors of every utterance of `data`, out[s][i],
/// decoded utterance-major through the shared feature groups.
std::vector<std::vector<phonotactic::SparseVec>> decode_raw(
    const FeatureGroups& groups, const corpus::Dataset& data,
    std::size_t chunk_samples) {
  std::vector<std::vector<phonotactic::SparseVec>> out(
      groups.num_subsystems(),
      std::vector<phonotactic::SparseVec>(data.size()));
  util::parallel_for(0, data.size(), [&](std::size_t i) {
    std::vector<phonotactic::SparseVec> svs =
        groups.score(data[i].samples, chunk_samples);
    for (std::size_t s = 0; s < svs.size(); ++s) out[s][i] = std::move(svs[s]);
  });
  return out;
}

}  // namespace

std::vector<DecodedSupervectors> decode_splits(
    std::span<Subsystem* const> subsystems, const corpus::LreCorpus& corpus,
    std::size_t chunk_samples) {
  PHONOLID_SPAN("decode_splits");
  const FeatureGroups groups(
      std::vector<const Subsystem*>(subsystems.begin(), subsystems.end()));
  auto train = decode_raw(groups, corpus.vsm_train(), chunk_samples);
  auto dev = decode_raw(groups, corpus.dev(), chunk_samples);
  auto test = decode_raw(groups, corpus.test(), chunk_samples);

  std::vector<DecodedSupervectors> out(subsystems.size());
  util::parallel_for(0, subsystems.size(), [&](std::size_t s) {
    Subsystem& sub = *subsystems[s];
    sub.fit_tfllr(train[s]);
    // Dev and test were decoded raw; scaling them after the fit is the same
    // arithmetic process() applies.
    if (sub.spec().use_tfllr) {
      for (auto& sv : dev[s]) sub.tfllr().transform(sv);
      for (auto& sv : test[s]) sub.tfllr().transform(sv);
    }
    out[s].tfllr = sub.tfllr();
    out[s].train = std::move(train[s]);
    out[s].dev = std::move(dev[s]);
    out[s].test = std::move(test[s]);
  });
  return out;
}

DecodedSupervectors Subsystem::decode_splits(const corpus::LreCorpus& corpus) {
  Subsystem* const self = this;
  return std::move(
      core::decode_splits({&self, 1}, corpus, batch_chunk_samples_).front());
}

void Subsystem::set_tfllr(phonotactic::TfllrScaler tfllr) {
  tfllr_ = std::move(tfllr);
}

void Subsystem::serialize_front_end(std::ostream& out) const {
  write_front_end(out, spec_.family, phone_map_, *model_);
}

std::unique_ptr<Subsystem> Subsystem::build(const corpus::LreCorpus& corpus,
                                            const FrontEndSpec& spec,
                                            std::uint64_t seed) {
  auto sub = assemble(corpus, spec, train_front_end(corpus, spec, seed));
  sub->train_supervectors_ = std::move(
      decode_raw(FeatureGroups({sub.get()}), corpus.vsm_train(), 0).front());
  sub->fit_tfllr(sub->train_supervectors_);

  PHONOLID_INFO("core") << "built subsystem " << spec.name << ": "
                        << spec.num_phones << " phones, supervector dim "
                        << sub->builder_->dimension();
  return sub;
}

std::vector<phonotactic::SparseVec> Subsystem::take_train_supervectors() {
  if (train_supervectors_taken_) {
    throw std::logic_error(
        "Subsystem::take_train_supervectors: already taken — the cached "
        "training supervectors are moved out by the first call (use "
        "decode_splits() / the artifact store for repeatable access)");
  }
  train_supervectors_taken_ = true;
  return std::move(train_supervectors_);
}

namespace {

/// Feed `samples` to `session` in `chunk_samples`-sized pushes (single push
/// when 0 — the batch special case).
void push_chunked(StreamingSession& session, std::span<const float> samples,
                  std::size_t chunk_samples) {
  if (chunk_samples == 0 || samples.empty()) {
    session.push(samples);
    return;
  }
  for (std::size_t i = 0; i < samples.size(); i += chunk_samples) {
    session.push(samples.subspan(i, std::min(chunk_samples,
                                             samples.size() - i)));
  }
}

}  // namespace

StreamingSession Subsystem::open_stream(StreamingOptions options) const {
  return StreamingSession(*this, std::move(options));
}

StreamingResult Subsystem::score_stream(std::span<const float> samples,
                                        const StreamingOptions& options) const {
  StreamingSession session = open_stream(options);
  push_chunked(session, samples, options.chunk_samples);
  return session.finalize();
}

decoder::Lattice Subsystem::decode(const corpus::Utterance& utt) const {
  StreamingOptions options;
  options.chunk_samples = batch_chunk_samples_;
  // Lattice-only callers (CLI decode, diagnostics) may not have a fitted
  // TFLLR scaler; the raw supervector in the discarded result is fine.
  options.apply_tfllr = false;
  StreamingSession session = open_stream(std::move(options));
  push_chunked(session, utt.samples, batch_chunk_samples_);
  return session.finalize().lattice;
}

phonotactic::SparseVec Subsystem::process(const corpus::Utterance& utt) const {
  static obs::Counter& utterances =
      obs::Metrics::counter("pipeline.utterances");
  PHONOLID_SPAN("pipeline");

  // The whole chain is one streaming session; `batch_chunk_samples_` only
  // changes how the work is sliced, never the bits that come out.
  StreamingOptions options;
  options.chunk_samples = batch_chunk_samples_;
  phonotactic::SparseVec sv = score_stream(utt.samples, options).supervector;
  utterances.add();
  return sv;
}

std::vector<phonotactic::SparseVec> Subsystem::process_all(
    const corpus::Dataset& data) const {
  std::vector<phonotactic::SparseVec> out(data.size());
  util::parallel_for(0, data.size(), [&](std::size_t i) {
    out[i] = process(data[i]);
  });
  return out;
}

decoder::Lattice Subsystem::decode_features(const util::Matrix& feats,
                                            std::size_t chunk_samples) const {
  const std::size_t frames = feats.rows();
  std::size_t chunk = frames;
  if (chunk_samples > 0) {
    const auto& fcfg = features_->config();
    const std::size_t shift = (fcfg.kind == dsp::FeatureKind::kMfcc)
                                  ? fcfg.mfcc.frame_shift
                                  : fcfg.plp.frame_shift;
    chunk = std::max<std::size_t>(1, chunk_samples / shift);
  }
  decoder::DecodeSession session(*decoder_);
  util::Matrix scores;
  for (std::size_t begin = 0; begin < frames; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, frames);
    model_->score_range(feats, begin, end, scores);
    session.advance(scores);
  }
  return session.finalize();
}

phonotactic::SparseVec Subsystem::supervector_of(
    const phonotactic::SparseVec& counts, bool apply_tfllr) const {
  phonotactic::SparseVec sv = builder_->build_from_counts(counts);
  if (apply_tfllr && spec_.use_tfllr) tfllr_.transform(sv);
  return sv;
}

StreamingResult Subsystem::score_features(
    const util::Matrix& feats, std::size_t num_samples, double feature_s,
    const StreamingOptions& options) const {
  StreamingResult res;
  // Audio accounting has always used the MFCC sample rate (both configs
  // carry the corpus rate); keep that for identical reports.
  res.audio_s = static_cast<double>(num_samples) /
                features_->config().mfcc.sample_rate;
  res.frames = feats.rows();

  obs::Span decode_span("decode");
  res.lattice = decode_features(feats, options.chunk_samples);
  const double dec_s = decode_span.stop();
  if (dec_s > 0.0 && feats.rows() > 0) {
    const double flops = model_->score_flops_per_frame() *
                         static_cast<double>(feats.rows());
    if (flops > 0.0) {
      PHONOLID_COUNTER_SAMPLE("decode.gflops", flops / dec_s / 1e9);
    }
  }

  obs::Span sv_span("supervector");
  phonotactic::CountAccumulator acc;
  acc.add(builder_->counts(res.lattice));
  res.counts = acc.build();
  res.supervector = supervector_of(res.counts, options.apply_tfllr);
  const double sv_s = sv_span.stop();

  std::lock_guard lock(times_mutex_);
  times_.feature_s += feature_s;
  times_.decode_s += dec_s;
  times_.supervector_s += sv_s;
  times_.audio_s += res.audio_s;
  return res;
}

FeatureGroups::FeatureGroups(std::vector<const Subsystem*> subsystems)
    : subsystems_(std::move(subsystems)), group_of_(subsystems_.size()) {
  for (std::size_t s = 0; s < subsystems_.size(); ++s) {
    const dsp::FeaturePipelineConfig& cfg =
        subsystems_[s]->feature_pipeline().config();
    const auto same_config = [&](const std::vector<std::size_t>& members) {
      return subsystems_[members.front()]->feature_pipeline().config() == cfg;
    };
    const auto it = std::find_if(groups_.begin(), groups_.end(), same_config);
    group_of_[s] = static_cast<std::size_t>(it - groups_.begin());
    if (it == groups_.end()) groups_.emplace_back();
    groups_[group_of_[s]].push_back(s);
  }
}

util::Matrix FeatureGroups::features(std::size_t g,
                                     std::span<const float> samples,
                                     std::size_t chunk_samples,
                                     double& seconds) const {
  obs::Span span("features");
  util::Matrix feats = subsystems_[groups_.at(g).front()]
                           ->feature_pipeline()
                           .process(samples, chunk_samples);
  seconds = span.stop();
  return feats;
}

phonotactic::SparseVec FeatureGroups::tail(
    std::size_t s, const util::Matrix& feats, std::size_t num_samples,
    double group_seconds, const StreamingOptions& options) const {
  const double share =
      group_seconds / static_cast<double>(groups_.at(group_of(s)).size());
  return subsystems_[s]
      ->score_features(feats, num_samples, share, options)
      .supervector;
}

std::vector<phonotactic::SparseVec> FeatureGroups::score(
    std::span<const float> samples, std::size_t chunk_samples) const {
  static obs::Counter& utterances =
      obs::Metrics::counter("pipeline.utterances");
  PHONOLID_SPAN("pipeline");
  StreamingOptions options;
  options.chunk_samples = chunk_samples;
  options.apply_tfllr = false;
  std::vector<phonotactic::SparseVec> out(subsystems_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    double seconds = 0.0;
    const util::Matrix feats = features(g, samples, chunk_samples, seconds);
    for (const std::size_t s : groups_[g]) {
      out[s] = tail(s, feats, samples.size(), seconds, options);
    }
  }
  utterances.add(subsystems_.size());
  return out;
}

StageTimes Subsystem::stage_times() const {
  std::lock_guard lock(times_mutex_);
  return times_;
}

void Subsystem::reset_stage_times() const {
  std::lock_guard lock(times_mutex_);
  times_ = StageTimes{};
}

}  // namespace phonolid::core
