// LRE-style dataset construction.
//
// Mirrors the paper's data layout (§4.2) at laptop scale:
//   - a *target* language family (paper: 23 LRE09 languages),
//   - per-front-end *native* training languages with phone-aligned audio
//     (paper: Czech/Hungarian/Russian/English/Mandarin corpora used to train
//     the phone recognizers),
//   - a VSM training set of long utterances per target language
//     (paper: 180k conversations),
//   - a development set for fusion calibration (paper: LRE03/05/07 + VOA),
//   - a test set in three nominal duration tiers (paper: 30s / 10s / 3s).
//
// Test utterances are rendered with a *harder channel distribution* than
// training, reproducing the train/test mismatch that motivates DBA.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/language_model.h"
#include "corpus/phone_inventory.h"
#include "corpus/synthesizer.h"
#include "util/options.h"
#include "util/thread_pool.h"

namespace phonolid::corpus {

enum class DurationTier : std::uint8_t { k30s = 0, k10s = 1, k3s = 2 };
inline constexpr std::size_t kNumTiers = 3;

const char* to_string(DurationTier tier) noexcept;

struct Utterance {
  std::uint64_t id = 0;
  std::int32_t language = -1;  // index into target languages; -1 = native/unknown
  DurationTier tier = DurationTier::k30s;
  std::vector<float> samples;
  /// Ground-truth universal-phone alignment (kept for AM training sets;
  /// empty for VSM/dev/test sets, which must be label-only like real data).
  std::vector<PhoneAlignment> alignment;
};

using Dataset = std::vector<Utterance>;

struct CorpusConfig {
  std::uint64_t seed = 20090704;
  double sample_rate = 8000.0;
  std::size_t num_universal_phones = 40;

  // Target language family.
  LanguageFamilyConfig family;

  // Native (front-end training) languages.
  std::size_t num_native_languages = 6;
  std::size_t am_train_utts_per_native = 64;
  double am_train_seconds = 3.0;

  // VSM training / dev / test sizes (per target language).
  std::size_t train_utts_per_language = 60;
  std::size_t dev_utts_per_language_per_tier = 6;
  std::size_t test_utts_per_language_per_tier = 40;

  /// Actual rendered seconds for each nominal tier (30s/10s/3s); scaled
  /// down so the full experiment grid fits in laptop minutes.
  double tier_seconds[kNumTiers] = {3.0, 1.2, 0.5};
  double train_seconds = 3.0;

  /// Preset scales used by the benches (PHONOLID_SCALE).
  static CorpusConfig preset(util::Scale scale, std::uint64_t seed);
};

/// What build() knows about an utterance before any audio exists.
struct UtteranceInfo {
  std::uint64_t id = 0;
  std::int32_t language = -1;  // as Utterance::language
  DurationTier tier = DurationTier::k30s;
};

/// Owns the inventory, the language specs and every split: each split's
/// metadata from build(), its audio from its first audio access.
class LreCorpus {
 public:
  LreCorpus();
  ~LreCorpus();
  LreCorpus(LreCorpus&&) noexcept;
  LreCorpus& operator=(LreCorpus&&) noexcept;

  /// Builds the inventory, the languages and, for every split, each
  /// utterance's id, language and tier plus how to render it.  Renders no
  /// audio: that waits for the split's first audio access, on `pool`
  /// (which must outlive the corpus).
  static LreCorpus build(const CorpusConfig& config,
                         util::ThreadPool& pool = util::ThreadPool::global());

  [[nodiscard]] const CorpusConfig& config() const noexcept { return config_; }
  [[nodiscard]] const PhoneInventory& inventory() const noexcept {
    return inventory_;
  }
  [[nodiscard]] const std::vector<LanguageSpec>& target_languages() const noexcept {
    return targets_;
  }
  [[nodiscard]] const std::vector<LanguageSpec>& native_languages() const noexcept {
    return natives_;
  }
  [[nodiscard]] std::size_t num_target_languages() const noexcept {
    return targets_.size();
  }

  // Audio accessors.  The first call for a split renders all of it, once,
  // in parallel over utterances; every utterance draws from its own stream
  // derive_stream(seed, salt * 0x10001 + i), so the bits do not depend on
  // the pool width, on which split is touched first, or on which thread
  // touches it.  Concurrent first calls from several threads are safe: one
  // renders, the others block until it is done.  Re-entry is not: the
  // render's parallel_for waits by running queued pool tasks, and if one of
  // those first-accesses the split being rendered, the call_once re-enters
  // on its own thread and deadlocks.  So no two pool tasks may be the first
  // to access one split; Experiment::build trains front ends that share a
  // native language in one stage for this reason.  Each rendered utterance
  // adds 1 to the `corpus.rendered_utterances` counter.

  /// Phone-aligned audio in native language `n` for acoustic-model training.
  [[nodiscard]] const Dataset& am_train(std::size_t native_index) const;
  [[nodiscard]] const Dataset& vsm_train() const;
  [[nodiscard]] const Dataset& dev() const;
  [[nodiscard]] const Dataset& test() const;

  // Metadata accessors: never render.  Entry i describes utterance i of the
  // split's audio accessor.
  [[nodiscard]] const std::vector<UtteranceInfo>& vsm_train_info()
      const noexcept;
  [[nodiscard]] const std::vector<UtteranceInfo>& dev_info() const noexcept;
  [[nodiscard]] const std::vector<UtteranceInfo>& test_info() const noexcept;

  /// Test utterances restricted to one duration tier (indices into test()).
  [[nodiscard]] std::vector<std::size_t> test_indices(DurationTier tier) const;
  [[nodiscard]] std::vector<std::size_t> dev_indices(DurationTier tier) const;

 private:
  struct Split;
  struct Splits;

  const Dataset& rendered(Split& split) const;

  CorpusConfig config_;
  PhoneInventory inventory_;
  std::vector<LanguageSpec> targets_;
  std::vector<LanguageSpec> natives_;
  util::ThreadPool* pool_;
  // Behind a pointer: a split's std::once_flag neither moves nor copies,
  // and a corpus is move-assigned (Experiment::build).
  std::unique_ptr<Splits> splits_;
};

}  // namespace phonolid::corpus
