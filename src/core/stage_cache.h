// Stage-key derivation for the experiment's stage graph.
//
// Maps the experiment's configuration structs onto pipeline::StageKey
// fingerprints.  Every field that can change a stage's output is hashed —
// corpus shape, front-end spec (incl. decoder and supervector settings),
// VSM hyper-parameters, the experiment seed and the scale preset (so
// PHONOLID_SCALE participates in the key) — plus the upstream stage keys,
// giving the invalidation chain:
//
//   corpus ──> frontend ──> supervectors ──> vsm
//
// A change anywhere upstream flips every downstream key; unrelated stages
// (other front-ends) keep their keys and stay warm.
#pragma once

#include "core/experiment.h"
#include "core/frontend_spec.h"
#include "pipeline/stage_key.h"

namespace phonolid::core {

/// Root of the chain: the corpus generation stage (no artifact of its own —
/// building the corpus metadata is cheap and always runs, and audio is
/// rendered only for the stages that miss — but every downstream key
/// includes it so corpus changes invalidate everything).
[[nodiscard]] pipeline::StageKey corpus_stage_key(
    const corpus::CorpusConfig& config, util::Scale scale, std::uint64_t seed);

/// "frontend": phone map + trained acoustic model for one front-end.
[[nodiscard]] pipeline::StageKey frontend_stage_key(
    const pipeline::StageKey& corpus_key, const FrontEndSpec& spec,
    std::uint64_t seed);

/// "supervectors": TFLLR scaler + per-split supervectors.  Fully determined
/// by the front end (the spec hashed into the frontend key already carries
/// the decoder and N-gram configuration).
[[nodiscard]] pipeline::StageKey supervectors_stage_key(
    const pipeline::StageKey& frontend_key);

/// "vsm": the baseline VSM trained on the supervector stage's training
/// split.  `train_seed` is the per-subsystem derived VSM seed.
[[nodiscard]] pipeline::StageKey vsm_stage_key(
    const pipeline::StageKey& supervectors_key, const svm::VsmTrainConfig& vsm,
    std::uint64_t train_seed, std::size_t num_classes);

}  // namespace phonolid::core
