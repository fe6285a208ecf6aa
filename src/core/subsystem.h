// One PPRVSM subsystem: front-end phone recognizer + supervector chain.
//
// Owns everything from raw audio to TFLLR-scaled supervectors for one
// front-end: the phone-set map, the feature pipeline, the trained acoustic
// model, the phone-loop lattice decoder, and the N-gram supervector
// builder.  The DBA iteration re-trains only the VSM on top; all Subsystem
// stages are computed once per utterance, which is the source of the
// paper's C_DBA/C_baseline ≈ 1 result (§5.4).
//
// The construction path is split into persistable stage products so the
// artifact store (pipeline/artifact_store.h) can skip whole stages on a
// warm run:
//
//   TrainedFrontEnd      = train_front_end(corpus, spec, seed)   [expensive]
//   Subsystem            = assemble(corpus, spec, fe)            [cheap]
//   DecodedSupervectors  = decode_splits(subsystems, corpus)     [dominant]
//
// build() composes all three for callers that don't cache (examples,
// `phonolid decode`, tests).
//
// Front ends whose full feature config compares equal share their features:
// FeatureGroups computes each distinct config once per utterance and hands
// the result to every member's tail (Subsystem::score_features), both in the
// offline split decode and in FrozenModel::score_batch.
#pragma once

#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "am/gmm_hmm.h"
#include "am/nn_hmm.h"
#include "core/frontend_spec.h"
#include "core/streaming.h"
#include "corpus/dataset.h"
#include "decoder/phone_loop_decoder.h"
#include "phonotactic/supervector.h"
#include "svm/vsm.h"

namespace phonolid::core {

/// Accumulated wall-clock per pipeline stage, for the paper's real-time
/// factor analysis (Table 5) and cost model (Eq. 16-19).
struct StageTimes {
  double feature_s = 0.0;
  double decode_s = 0.0;
  double supervector_s = 0.0;
  double audio_s = 0.0;  // seconds of audio processed

  StageTimes& operator+=(const StageTimes& o) noexcept {
    feature_s += o.feature_s;
    decode_s += o.decode_s;
    supervector_s += o.supervector_s;
    audio_s += o.audio_s;
    return *this;
  }
};

/// Stage product of the front-end training stage: the phone-set map and the
/// acoustic model (the parts of a Subsystem that cost AM training time; the
/// feature pipeline / decoder / supervector builder are rebuilt from the
/// spec in milliseconds).
struct TrainedFrontEnd {
  ModelFamily family = ModelFamily::kGmmHmm;
  am::PhoneSetMap phone_map;
  std::unique_ptr<am::AcousticModel> model;

  /// HMM transition model of the concrete acoustic model (needed to
  /// reconstruct the phone-loop decoder).
  [[nodiscard]] const am::HmmTransitions& transitions() const;

  void serialize(std::ostream& out) const;
  static TrainedFrontEnd deserialize(std::istream& in);
};

/// Stage product of the decode stage: TFLLR-scaled supervectors for every
/// split plus the fitted scaler (so a warm Subsystem can still process new
/// utterances).  This is the dominant artifact — a hit skips every feature
/// extraction and lattice decode of the run.
struct DecodedSupervectors {
  phonotactic::TfllrScaler tfllr;
  std::vector<phonotactic::SparseVec> train;
  std::vector<phonotactic::SparseVec> dev;
  std::vector<phonotactic::SparseVec> test;

  void serialize(std::ostream& out) const;
  static DecodedSupervectors deserialize(std::istream& in);
};

class Subsystem {
 public:
  /// Train the front-end on its native-language aligned audio and fit the
  /// TFLLR background on the VSM training set.  The scaled training-set
  /// supervectors computed during the TFLLR fit are cached and retrievable
  /// once via take_train_supervectors().
  static std::unique_ptr<Subsystem> build(const corpus::LreCorpus& corpus,
                                          const FrontEndSpec& spec,
                                          std::uint64_t seed);

  /// Stage 1: phone map + acoustic model (the only seeded, training-cost
  /// parts).  Throws std::invalid_argument when spec.native_language is out
  /// of range.
  static TrainedFrontEnd train_front_end(const corpus::LreCorpus& corpus,
                                         const FrontEndSpec& spec,
                                         std::uint64_t seed);

  /// Rebuild a full Subsystem around a (possibly deserialized) front end.
  /// The TFLLR scaler starts unset: fit it via decode_splits() or install a
  /// cached one via set_tfllr().
  static std::unique_ptr<Subsystem> assemble(const corpus::LreCorpus& corpus,
                                             const FrontEndSpec& spec,
                                             TrainedFrontEnd front_end);

  /// Corpus-free assembly (frozen-bundle inference): the corpus enters the
  /// overload above only through its sample rate, so a deserialized front end
  /// plus the recording sample rate fully determine the scoring chain.
  static std::unique_ptr<Subsystem> assemble(double sample_rate,
                                             const FrontEndSpec& spec,
                                             TrainedFrontEnd front_end);

  /// Assembly around an explicit feature config, for tests and experiments
  /// only.  The overloads above use the spec's feature kind at the sample
  /// rate; a different config (say, another frame shift) gives a front end
  /// that shares features with no other.  The config is not part of stage
  /// keys or the bundle format, so a subsystem built this way must not pass
  /// through the artifact store or freeze: it would share the default
  /// config's cache keys and reload with the default features.
  static std::unique_ptr<Subsystem> assemble(
      const dsp::FeaturePipelineConfig& features, const FrontEndSpec& spec,
      TrainedFrontEnd front_end);

  /// Stage 2 for this subsystem alone: the one-subsystem call of the shared
  /// decode_splits() below, at batch_chunk_samples().
  [[nodiscard]] DecodedSupervectors decode_splits(
      const corpus::LreCorpus& corpus);

  /// Install a cached TFLLR scaler (warm path — decode_splits was skipped).
  void set_tfllr(phonotactic::TfllrScaler tfllr);

  Subsystem(const Subsystem&) = delete;
  Subsystem& operator=(const Subsystem&) = delete;

  [[nodiscard]] const FrontEndSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }
  [[nodiscard]] std::size_t supervector_dim() const noexcept {
    return builder_->dimension();
  }
  [[nodiscard]] const am::PhoneSetMap& phone_map() const noexcept {
    return phone_map_;
  }
  [[nodiscard]] const am::AcousticModel& acoustic_model() const noexcept {
    return *model_;
  }
  [[nodiscard]] const phonotactic::TfllrScaler& tfllr() const noexcept {
    return tfllr_;
  }
  [[nodiscard]] const dsp::FeaturePipeline& feature_pipeline() const noexcept {
    return *features_;
  }

  /// Re-serialize this subsystem's front end in the TrainedFrontEnd wire
  /// format ("PTFE") — the assemble() step moved the acoustic model into the
  /// subsystem, so bundle freezing snapshots it from here.
  void serialize_front_end(std::ostream& out) const;

  /// VSM training-set supervectors cached during build (moves them out).
  /// Calling twice is always a bug — the second call would silently return
  /// an empty set — so it throws std::logic_error.  Artifact-backed callers
  /// (Experiment) use decode_splits() instead.
  [[nodiscard]] std::vector<phonotactic::SparseVec> take_train_supervectors();

  /// Decode one utterance to a posterior lattice (exposed for examples and
  /// diagnostics).
  [[nodiscard]] decoder::Lattice decode(const corpus::Utterance& utt) const;

  /// Full chain for one utterance: audio -> features -> lattice -> TFLLR
  /// supervector.  Internally a single streaming session (the batch path is
  /// the one-chunk special case — see core/streaming.h).
  [[nodiscard]] phonotactic::SparseVec process(
      const corpus::Utterance& utt) const;

  /// Open a streaming session for one utterance: push audio chunks, collect
  /// checkpoint LLRs, finalize to the batch-identical result.  The session
  /// borrows this subsystem (must outlive it); any number of concurrent
  /// sessions are safe.
  [[nodiscard]] StreamingSession open_stream(StreamingOptions options = {}) const;

  /// Convenience: stream `samples` through a fresh session in
  /// `options.chunk_samples`-sized pushes (one push when 0) and finalize.
  /// This is the checkpointed-LLR entry point (paper-style early decisions:
  /// set `options.checkpoint_interval_s` and `options.scorer`).
  [[nodiscard]] StreamingResult score_stream(
      std::span<const float> samples, const StreamingOptions& options) const;

  /// The chain after the feature stage, shared by StreamingSession::finalize
  /// and FeatureGroups: CMVN'd `feats` (from `num_samples` raw samples) ->
  /// chunked AM score + Viterbi (options.chunk_samples) -> N-gram counts ->
  /// supervector -> TFLLR (options.apply_tfllr).  `feature_s` is the feature
  /// wall time charged to this subsystem's StageTimes; checkpoint options are
  /// ignored.
  [[nodiscard]] StreamingResult score_features(
      const util::Matrix& feats, std::size_t num_samples, double feature_s,
      const StreamingOptions& options) const;

  /// Chunk granularity (in samples) the batch entry points (process /
  /// process_all / decode / decode_splits) push audio and decode in.
  /// 0 = whole utterance.  Any value is bit-identical; exposed so runs can
  /// prove it (CLI --chunk-ms, tier1 equivalence gate).
  void set_batch_chunk_samples(std::size_t samples) noexcept {
    batch_chunk_samples_ = samples;
  }
  [[nodiscard]] std::size_t batch_chunk_samples() const noexcept {
    return batch_chunk_samples_;
  }

  /// Parallel batch processing; also accumulates stage times.
  [[nodiscard]] std::vector<phonotactic::SparseVec> process_all(
      const corpus::Dataset& data) const;

  /// Stage-time counters (accumulated across every process/process_all call).
  [[nodiscard]] StageTimes stage_times() const;
  void reset_stage_times() const;

 private:
  friend class StreamingSession;

  friend std::vector<DecodedSupervectors> decode_splits(
      std::span<Subsystem* const>, const corpus::LreCorpus&, std::size_t);

  Subsystem() = default;

  /// The feature config a spec's front end uses at `sample_rate`.
  [[nodiscard]] static dsp::FeaturePipelineConfig feature_config(
      const FrontEndSpec& spec, double sample_rate);

  /// Fit + install the TFLLR background on raw training-set supervectors and
  /// scale them in place (when spec.use_tfllr).
  void fit_tfllr(std::vector<phonotactic::SparseVec>& train);

  /// CMVN'd features -> chunked AM score + Viterbi (streaming checkpoints
  /// and score_features).
  [[nodiscard]] decoder::Lattice decode_features(
      const util::Matrix& feats, std::size_t chunk_samples) const;
  /// Counts -> normalised supervector (-> TFLLR when `apply_tfllr`).
  [[nodiscard]] phonotactic::SparseVec supervector_of(
      const phonotactic::SparseVec& counts, bool apply_tfllr) const;

  FrontEndSpec spec_;
  am::PhoneSetMap phone_map_;
  std::unique_ptr<dsp::FeaturePipeline> features_;
  std::unique_ptr<am::AcousticModel> model_;
  std::unique_ptr<decoder::PhoneLoopDecoder> decoder_;
  std::unique_ptr<phonotactic::SupervectorBuilder> builder_;
  phonotactic::TfllrScaler tfllr_;
  std::vector<phonotactic::SparseVec> train_supervectors_;
  bool train_supervectors_taken_ = false;
  std::size_t batch_chunk_samples_ = 0;

  mutable std::mutex times_mutex_;
  mutable StageTimes times_;
};

/// Subsystems scored together, grouped by their full feature config
/// (dsp::FeaturePipelineConfig ==).  Each group's features are computed once
/// per utterance and handed to every member's Subsystem::score_features, so
/// the default six front ends run two feature passes (MFCC, PLP) instead of
/// six.  Borrows the subsystems; they must outlive this object.
class FeatureGroups {
 public:
  explicit FeatureGroups(std::vector<const Subsystem*> subsystems);

  [[nodiscard]] std::size_t num_subsystems() const noexcept {
    return subsystems_.size();
  }
  [[nodiscard]] std::size_t num_groups() const noexcept {
    return groups_.size();
  }
  /// The group of subsystem s (an index into the constructor's list).
  [[nodiscard]] std::size_t group_of(std::size_t s) const {
    return group_of_.at(s);
  }

  /// Group g's CMVN'd features of one utterance, pushed in `chunk_samples`
  /// pieces (0 = one push); `seconds` receives the pass's wall time.
  [[nodiscard]] util::Matrix features(std::size_t g,
                                      std::span<const float> samples,
                                      std::size_t chunk_samples,
                                      double& seconds) const;

  /// Subsystem s's tail (Subsystem::score_features) on `feats`, its group's
  /// features of an utterance of `num_samples` samples.  The pass's
  /// `group_seconds` are split evenly across the group's members, so summed
  /// StageTimes count each pass once.
  [[nodiscard]] phonotactic::SparseVec tail(
      std::size_t s, const util::Matrix& feats, std::size_t num_samples,
      double group_seconds, const StreamingOptions& options) const;

  /// One utterance through every subsystem: one feature pass per group, then
  /// each member's tail.  out[s] is subsystem s's raw (pre-TFLLR)
  /// supervector: bit-identical to its process() before TFLLR scaling, for
  /// any chunking.
  [[nodiscard]] std::vector<phonotactic::SparseVec> score(
      std::span<const float> samples, std::size_t chunk_samples) const;

 private:
  std::vector<const Subsystem*> subsystems_;
  std::vector<std::vector<std::size_t>> groups_;
  std::vector<std::size_t> group_of_;
};

/// Stage 2 for every subsystem in `subsystems` at once: decodes vsm_train,
/// dev and test utterance-major through FeatureGroups::score (so features
/// live only for the utterance in flight), fits and installs each
/// subsystem's TFLLR background on its training split, and returns each
/// subsystem's scaled supervectors.  Bit-identical to decoding each
/// subsystem alone, for any `chunk_samples`.
[[nodiscard]] std::vector<DecodedSupervectors> decode_splits(
    std::span<Subsystem* const> subsystems, const corpus::LreCorpus& corpus,
    std::size_t chunk_samples);

}  // namespace phonolid::core
