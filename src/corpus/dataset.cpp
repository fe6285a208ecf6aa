#include "corpus/dataset.h"

#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace phonolid::corpus {

const char* to_string(DurationTier tier) noexcept {
  switch (tier) {
    case DurationTier::k30s: return "30s";
    case DurationTier::k10s: return "10s";
    case DurationTier::k3s: return "3s";
  }
  return "?";
}

CorpusConfig CorpusConfig::preset(util::Scale scale, std::uint64_t seed) {
  CorpusConfig c;
  c.seed = seed;
  switch (scale) {
    case util::Scale::kQuick:
      c.num_universal_phones = 30;
      c.family.num_languages = 6;
      c.num_native_languages = 6;
      c.am_train_utts_per_native = 32;
      c.am_train_seconds = 2.5;
      c.train_utts_per_language = 24;
      c.dev_utts_per_language_per_tier = 4;
      c.test_utts_per_language_per_tier = 10;
      c.tier_seconds[0] = 1.6;
      c.tier_seconds[1] = 0.7;
      c.tier_seconds[2] = 0.35;
      c.train_seconds = 1.6;
      break;
    case util::Scale::kDefault:
      // Defaults in the struct definition.
      break;
    case util::Scale::kFull:
      c.num_universal_phones = 48;
      c.family.num_languages = 14;
      c.num_native_languages = 6;
      c.am_train_utts_per_native = 80;
      c.am_train_seconds = 4.0;
      c.train_utts_per_language = 120;
      c.dev_utts_per_language_per_tier = 10;
      c.test_utts_per_language_per_tier = 50;
      c.tier_seconds[0] = 4.5;
      c.tier_seconds[1] = 1.5;
      c.tier_seconds[2] = 0.5;
      c.train_seconds = 4.5;
      break;
  }
  return c;
}

/// One split: its utterances' metadata and render jobs from build(), and
/// its audio once the first audio access has rendered it.
struct LreCorpus::Split {
  /// How to render one utterance.  `spec` points into the corpus's language
  /// vectors, whose elements keep their addresses when the corpus moves.
  struct Job {
    const LanguageSpec* spec = nullptr;
    double seconds = 1.0;
  };

  std::uint64_t salt = 0;
  bool keep_alignment = false;
  bool test_channel = false;
  std::vector<UtteranceInfo> info;
  std::vector<Job> jobs;
  std::once_flag render_once;
  Dataset data;

  void add(std::int32_t language, DurationTier tier, const LanguageSpec& spec,
           double seconds) {
    info.push_back({salt * 1000000ull + info.size(), language, tier});
    jobs.push_back({&spec, seconds});
  }
};

struct LreCorpus::Splits {
  explicit Splits(std::size_t num_native) : am_train(num_native) {}
  std::vector<Split> am_train;  // one per native language
  Split vsm_train;
  Split dev;
  Split test;
};

namespace {

obs::Counter& rendered_utterances() {
  static obs::Counter& counter =
      obs::Metrics::counter("corpus.rendered_utterances");
  return counter;
}

std::vector<std::size_t> tier_indices(const std::vector<UtteranceInfo>& info,
                                      DurationTier tier) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (info[i].tier == tier) idx.push_back(i);
  }
  return idx;
}

}  // namespace

LreCorpus::LreCorpus()
    : pool_(&util::ThreadPool::global()),
      splits_(std::make_unique<Splits>(0)) {}
LreCorpus::~LreCorpus() = default;
LreCorpus::LreCorpus(LreCorpus&&) noexcept = default;
LreCorpus& LreCorpus::operator=(LreCorpus&&) noexcept = default;

LreCorpus LreCorpus::build(const CorpusConfig& config, util::ThreadPool& pool) {
  // Registered at 0, so the report of a run that renders nothing says so.
  rendered_utterances();
  LreCorpus corpus;
  corpus.config_ = config;
  corpus.pool_ = &pool;
  corpus.inventory_ =
      build_universal_inventory(config.num_universal_phones, config.seed);
  corpus.targets_ =
      build_language_family(corpus.inventory_, config.family, config.seed);
  corpus.natives_.reserve(config.num_native_languages);
  for (std::size_t n = 0; n < config.num_native_languages; ++n) {
    corpus.natives_.push_back(build_language(
        corpus.inventory_, "native" + std::to_string(n),
        config.family.concentration, config.family.subset_fraction,
        util::derive_stream(config.seed, 0xB000 + n)));
  }

  corpus.splits_ = std::make_unique<Splits>(config.num_native_languages);
  Splits& splits = *corpus.splits_;
  const std::size_t k = corpus.targets_.size();

  // Acoustic-model training sets: phone-aligned, one per native language.
  for (std::size_t n = 0; n < config.num_native_languages; ++n) {
    Split& split = splits.am_train[n];
    split.salt = 10 + n;
    split.keep_alignment = true;
    for (std::size_t u = 0; u < config.am_train_utts_per_native; ++u) {
      split.add(-1, DurationTier::k30s, corpus.natives_[n],
                config.am_train_seconds);
    }
  }

  // VSM training set: long utterances, per target language.
  splits.vsm_train.salt = 100;
  for (std::size_t lang = 0; lang < k; ++lang) {
    for (std::size_t u = 0; u < config.train_utts_per_language; ++u) {
      splits.vsm_train.add(static_cast<std::int32_t>(lang), DurationTier::k30s,
                           corpus.targets_[lang], config.train_seconds);
    }
  }

  // Dev and test: all tiers, test channel conditions for the test set.
  const auto build_tiered = [&](std::size_t per_lang_per_tier, bool test_channel,
                                std::uint64_t salt, Split& split) {
    split.salt = salt;
    split.test_channel = test_channel;
    for (std::size_t tier = 0; tier < kNumTiers; ++tier) {
      for (std::size_t lang = 0; lang < k; ++lang) {
        for (std::size_t u = 0; u < per_lang_per_tier; ++u) {
          split.add(static_cast<std::int32_t>(lang),
                    static_cast<DurationTier>(tier), corpus.targets_[lang],
                    config.tier_seconds[tier]);
        }
      }
    }
  };
  build_tiered(config.dev_utts_per_language_per_tier, false, 200, splits.dev);
  build_tiered(config.test_utts_per_language_per_tier, true, 300, splits.test);

  PHONOLID_INFO("corpus") << "built corpus: " << k << " target languages, "
                          << splits.vsm_train.info.size() << " train / "
                          << splits.dev.info.size() << " dev / "
                          << splits.test.info.size() << " test utterances";
  return corpus;
}

/// Renders the whole split in parallel into split.data, with RNG streams
/// derived from (seed, salt, index) so the result is identical under any
/// thread count and whichever split renders first.
const Dataset& LreCorpus::rendered(Split& split) const {
  std::call_once(split.render_once, [&] {
    PHONOLID_SPAN("corpus/render");
    const Synthesizer synth(inventory_, config_.sample_rate);
    split.data.resize(split.jobs.size());
    util::parallel_for(*pool_, 0, split.jobs.size(), [&](std::size_t i) {
      util::Rng rng(
          util::derive_stream(config_.seed, split.salt * 0x10001ull + i));
      const Split::Job& job = split.jobs[i];
      const auto phones =
          job.spec->sample_sequence(inventory_, job.seconds, rng);
      const SpeakerProfile speaker = SpeakerProfile::sample(rng);
      const ChannelProfile channel = split.test_channel
                                         ? ChannelProfile::sample_test(rng)
                                         : ChannelProfile::sample(rng);
      RenderedUtterance rendered = synth.render(phones, speaker, channel, rng);
      Utterance& utt = split.data[i];
      utt.id = split.info[i].id;
      utt.language = split.info[i].language;
      utt.tier = split.info[i].tier;
      utt.samples = std::move(rendered.samples);
      if (split.keep_alignment) utt.alignment = std::move(rendered.alignment);
    });
    rendered_utterances().add(split.jobs.size());
  });
  return split.data;
}

const Dataset& LreCorpus::am_train(std::size_t native_index) const {
  return rendered(splits_->am_train.at(native_index));
}
const Dataset& LreCorpus::vsm_train() const {
  return rendered(splits_->vsm_train);
}
const Dataset& LreCorpus::dev() const { return rendered(splits_->dev); }
const Dataset& LreCorpus::test() const { return rendered(splits_->test); }

const std::vector<UtteranceInfo>& LreCorpus::vsm_train_info() const noexcept {
  return splits_->vsm_train.info;
}
const std::vector<UtteranceInfo>& LreCorpus::dev_info() const noexcept {
  return splits_->dev.info;
}
const std::vector<UtteranceInfo>& LreCorpus::test_info() const noexcept {
  return splits_->test.info;
}

std::vector<std::size_t> LreCorpus::test_indices(DurationTier tier) const {
  return tier_indices(splits_->test.info, tier);
}

std::vector<std::size_t> LreCorpus::dev_indices(DurationTier tier) const {
  return tier_indices(splits_->dev.info, tier);
}

}  // namespace phonolid::corpus
