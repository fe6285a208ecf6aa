#include "core/streaming.h"

#include <algorithm>
#include <stdexcept>

#include "core/subsystem.h"
#include "obs/energy.h"
#include "obs/trace.h"
#include "phonotactic/ngram_counts.h"

namespace phonolid::core {

StreamingSession::StreamingSession(const Subsystem& subsystem,
                                   StreamingOptions options)
    : subsystem_(&subsystem),
      options_(std::move(options)),
      features_(*subsystem.features_),
      next_checkpoint_s_(options_.checkpoint_interval_s) {}

double StreamingSession::audio_seconds() const noexcept {
  // The batch path always used the MFCC sample rate for audio accounting
  // (both configs carry the corpus rate); keep that for identical reports.
  return static_cast<double>(features_.samples_pushed()) /
         subsystem_->features_->config().mfcc.sample_rate;
}

void StreamingSession::charge_new_rows() {
  const std::size_t rows = features_.num_rows();
  if (rows > charged_rows_) {
    obs::Energy::charge_flops(static_cast<double>(rows - charged_rows_) *
                              subsystem_->features_->flops_per_frame());
    charged_rows_ = rows;
  }
}

void StreamingSession::push(std::span<const float> samples) {
  if (finalized_) {
    throw std::logic_error("StreamingSession: push() after finalize()");
  }
  {
    obs::Span feature_span("features");
    features_.push(samples);
    charge_new_rows();
    feature_s_ += feature_span.stop();
  }
  maybe_checkpoint();
}

void StreamingSession::maybe_checkpoint() {
  if (options_.checkpoint_interval_s <= 0.0) return;
  const double audio_s = audio_seconds();
  if (audio_s < next_checkpoint_s_) return;
  // One checkpoint per crossing push (a single huge chunk yields one
  // checkpoint, not a backlog of identical ones).
  while (next_checkpoint_s_ <= audio_s) {
    next_checkpoint_s_ += options_.checkpoint_interval_s;
  }
  PHONOLID_SPAN("checkpoint");
  StreamingCheckpoint cp;
  cp.audio_s = audio_s;
  cp.frames = features_.num_rows();
  if (cp.frames > 0 && options_.scorer) {
    // Exact batch answer on the prefix: CMVN over the delta-resolved rows
    // seen so far, then the same chunked decode -> counts -> supervector
    // chain finalize() runs on the whole utterance.
    util::Matrix feats = features_.prefix(cp.frames);
    const auto& fcfg = subsystem_->features_->config();
    if (fcfg.cmvn) dsp::cmvn_inplace(feats, fcfg.cmvn_variance);
    const decoder::Lattice lattice =
        subsystem_->decode_features(feats, options_.chunk_samples);
    phonotactic::CountAccumulator acc;
    acc.add(subsystem_->builder_->counts(lattice));
    cp.llr = options_.scorer(
        subsystem_->supervector_of(acc.build(), options_.apply_tfllr));
    if (!cp.llr.empty()) {
      cp.best_language = static_cast<std::size_t>(
          std::max_element(cp.llr.begin(), cp.llr.end()) - cp.llr.begin());
    }
  }
  checkpoints_.push_back(std::move(cp));
}

StreamingResult StreamingSession::finalize() {
  if (finalized_) {
    throw std::logic_error("StreamingSession: finalize() called twice");
  }
  finalized_ = true;

  obs::Span feature_span("features");
  features_.finish();
  charge_new_rows();
  util::Matrix feats = features_.take();
  const auto& fcfg = subsystem_->features_->config();
  if (fcfg.cmvn) dsp::cmvn_inplace(feats, fcfg.cmvn_variance);
  const double feat_s = feature_s_ + feature_span.stop();

  StreamingResult res = subsystem_->score_features(
      feats, features_.samples_pushed(), feat_s, options_);
  res.checkpoints = std::move(checkpoints_);
  return res;
}

}  // namespace phonolid::core
