// Per-utterance streaming sessions: chunked audio in, early LLR checkpoints
// out, batch-identical result at finalize().
//
// A StreamingSession owns every piece of per-utterance state — the
// incremental feature extractor (dsp::StreamingFeatures), checkpoint
// records, and stage-time accumulators — so any number of sessions can run
// concurrently against one const Subsystem from any mix of threads.
//
// Exactness contract: for ANY chunking of the same samples, finalize()
// produces bit-identical results (lattice, counts, supervector) to the
// batch Subsystem::process() path — in fact the batch path IS a
// single-chunk streaming session, so there is one code path to trust.
// Per-utterance CMVN is the one stage that needs whole-utterance
// statistics, so acoustic scoring and decoding are deferred to finalize()
// and run chunk-by-chunk there (AcousticModel::score_range +
// decoder::DecodeSession).
//
// Checkpoints: when `checkpoint_interval_s` is set, each push() that
// crosses an interval boundary computes the exact batch answer on the
// audio *prefix* seen so far — the first `frames` delta-resolved feature
// rows go through CMVN → chunked decode → N-gram counts → supervector →
// TFLLR → (optional) LLR scorer.  Prefix recomputation is what exactness
// costs under per-utterance CMVN; checkpoints are opt-in and their extra
// work is confined to the session.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "decoder/lattice.h"
#include "dsp/streaming_features.h"
#include "phonotactic/sparse.h"
#include "util/matrix.h"

namespace phonolid::core {

class Subsystem;

/// Maps one (TFLLR-scaled) supervector to per-language log-likelihood
/// ratios — typically a closure over the run's trained VSM.
using LlrScorer =
    std::function<std::vector<float>(const phonotactic::SparseVec&)>;

struct StreamingOptions {
  /// Acoustic-scoring/decode chunk granularity in samples (0 = whole
  /// utterance).  Any value yields bit-identical results; smaller chunks
  /// bound the per-advance latency at finalize().
  std::size_t chunk_samples = 0;
  /// Emit a checkpoint whenever this much audio has accumulated since the
  /// last one (0 = no checkpoints).
  double checkpoint_interval_s = 0.0;
  /// Optional per-checkpoint LLR scorer.  Checkpoints only run the decode →
  /// counts → supervector chain when a scorer is present; without one they
  /// just record cadence (audio_s / frames).
  LlrScorer scorer;
  /// Apply the subsystem's TFLLR scaling to supervectors (requires a fitted
  /// scaler when the spec enables TFLLR).  false is for callers that only
  /// want lattices/raw counts (CLI decode) and for the TFLLR fit pass
  /// itself.
  bool apply_tfllr = true;
};

/// One early decision point: the exact batch answer on the audio prefix.
struct StreamingCheckpoint {
  static constexpr std::size_t kNoLanguage = static_cast<std::size_t>(-1);

  double audio_s = 0.0;    ///< audio seen when the checkpoint fired
  std::size_t frames = 0;  ///< delta-resolved feature rows covered
  std::vector<float> llr;  ///< per-language LLRs (empty without a scorer)
  std::size_t best_language = kNoLanguage;  ///< argmax of llr
};

struct StreamingResult {
  decoder::Lattice lattice;
  /// Raw (pre-normalisation) N-gram counts — the mergeable partial form.
  phonotactic::SparseVec counts;
  /// Normalised supervector (TFLLR-scaled when the spec enables it).
  phonotactic::SparseVec supervector;
  std::size_t frames = 0;
  double audio_s = 0.0;
  std::vector<StreamingCheckpoint> checkpoints;
};

class StreamingSession {
 public:
  /// Feed the next chunk of raw audio samples; may fire checkpoints.
  /// Throws std::logic_error after finalize().
  void push(std::span<const float> samples);

  /// Flush the front end, run the deferred CMVN + chunked decode + count
  /// chain and return the batch-identical result (plus the checkpoints
  /// collected along the way).  Throws std::logic_error if called twice.
  [[nodiscard]] StreamingResult finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] double audio_seconds() const noexcept;
  /// Delta-resolved feature rows available so far.
  [[nodiscard]] std::size_t frames_ready() const noexcept {
    return features_.num_rows();
  }
  [[nodiscard]] const std::vector<StreamingCheckpoint>& checkpoints()
      const noexcept {
    return checkpoints_;
  }

 private:
  friend class Subsystem;
  StreamingSession(const Subsystem& subsystem, StreamingOptions options);

  void charge_new_rows();
  void maybe_checkpoint();

  const Subsystem* subsystem_;
  StreamingOptions options_;
  dsp::StreamingFeatures features_;
  std::vector<StreamingCheckpoint> checkpoints_;
  double next_checkpoint_s_ = 0.0;
  std::size_t charged_rows_ = 0;  // feature rows already energy-charged
  double feature_s_ = 0.0;        // accumulated front-end wall-clock
  bool finalized_ = false;
};

}  // namespace phonolid::core
