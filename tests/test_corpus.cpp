#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <thread>

#include "corpus/dataset.h"
#include "corpus/language_model.h"
#include "corpus/phone_inventory.h"
#include "corpus/synthesizer.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace phonolid::corpus {
namespace {

TEST(PhoneInventory, SizeAndDeterminism) {
  const auto a = build_universal_inventory(30, 42);
  const auto b = build_universal_inventory(30, 42);
  ASSERT_EQ(a.size(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.phone(i).label, b.phone(i).label);
    EXPECT_DOUBLE_EQ(a.phone(i).formant_hz[0], b.phone(i).formant_hz[0]);
  }
}

TEST(PhoneInventory, DifferentSeedsDiffer) {
  const auto a = build_universal_inventory(30, 1);
  const auto b = build_universal_inventory(30, 2);
  int diffs = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    if (std::abs(a.phone(i).formant_hz[0] - b.phone(i).formant_hz[0]) > 1e-9) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(PhoneInventory, AcousticallyValidPrototypes) {
  const auto inv = build_universal_inventory(40, 7);
  for (std::size_t i = 0; i < inv.size(); ++i) {
    const auto& p = inv.phone(i);
    EXPECT_GT(p.formant_hz[0], 100.0);
    EXPECT_LT(p.formant_hz[0], 1000.0);
    EXPECT_GT(p.formant_hz[1], p.formant_hz[0]);
    EXPECT_GE(p.noise_fraction, 0.0);
    EXPECT_LE(p.noise_fraction, 1.0);
    EXPECT_GT(p.duration_mean_s, 0.01);
    EXPECT_LT(p.duration_mean_s, 0.5);
  }
}

TEST(LanguageSpec, RowsAreDistributions) {
  const auto inv = build_universal_inventory(20, 5);
  const auto lang = build_language(inv, "x", 0.3, 0.8, 11);
  double init_sum = 0.0;
  for (double p : lang.initial()) {
    EXPECT_GE(p, 0.0);
    init_sum += p;
  }
  EXPECT_NEAR(init_sum, 1.0, 1e-9);
  for (const auto& row : lang.bigram()) {
    double sum = 0.0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LanguageSpec, SampleSequenceApproximatesTargetDuration) {
  const auto inv = build_universal_inventory(20, 5);
  const auto lang = build_language(inv, "x", 0.3, 0.8, 13);
  util::Rng rng(17);
  const auto seq = lang.sample_sequence(inv, 3.0, rng);
  double dur = 0.0;
  for (std::size_t p : seq) dur += inv.phone(p).duration_mean_s;
  EXPECT_GE(dur, 3.0);
  EXPECT_LT(dur, 3.6);
  EXPECT_GT(seq.size(), 10u);
}

TEST(LanguageFamily, LanguagesAreDistinct) {
  const auto inv = build_universal_inventory(30, 3);
  LanguageFamilyConfig cfg;
  cfg.num_languages = 6;
  cfg.sibling_stride = 0;
  const auto langs = build_language_family(inv, cfg, 77);
  ASSERT_EQ(langs.size(), 6u);
  for (std::size_t i = 0; i < langs.size(); ++i) {
    for (std::size_t j = i + 1; j < langs.size(); ++j) {
      EXPECT_GT(LanguageSpec::bigram_distance(langs[i], langs[j]), 0.2)
          << i << " vs " << j;
    }
  }
}

TEST(LanguageFamily, SiblingsAreCloserThanStrangers) {
  const auto inv = build_universal_inventory(30, 3);
  LanguageFamilyConfig cfg;
  cfg.num_languages = 8;
  cfg.sibling_stride = 4;        // languages 3 and 7 are siblings of 2 and 6
  cfg.sibling_similarity = 0.8;
  const auto langs = build_language_family(inv, cfg, 99);
  const double sib = LanguageSpec::bigram_distance(langs[2], langs[3]);
  const double stranger = LanguageSpec::bigram_distance(langs[2], langs[5]);
  EXPECT_LT(sib, stranger);
}

TEST(Synthesizer, RendersNonEmptyAudioWithAlignment) {
  const auto inv = build_universal_inventory(20, 5);
  Synthesizer synth(inv, 8000.0);
  util::Rng rng(23);
  const std::vector<std::size_t> phones = {0, 3, 7, 2, 9};
  const auto speaker = SpeakerProfile::sample(rng);
  const auto channel = ChannelProfile::sample(rng);
  const auto utt = synth.render(phones, speaker, channel, rng);
  ASSERT_EQ(utt.alignment.size(), phones.size());
  EXPECT_GT(utt.samples.size(), 800u);  // >= 5 phones * 30ms at 8 kHz-ish
  // Alignment tiles the sample range exactly.
  EXPECT_EQ(utt.alignment.front().start_sample, 0u);
  for (std::size_t i = 0; i + 1 < utt.alignment.size(); ++i) {
    EXPECT_EQ(utt.alignment[i].end_sample, utt.alignment[i + 1].start_sample);
    EXPECT_EQ(utt.alignment[i].phone, phones[i]);
  }
  EXPECT_EQ(utt.alignment.back().end_sample, utt.samples.size());
  for (float s : utt.samples) EXPECT_TRUE(std::isfinite(s));
}

TEST(Synthesizer, ChannelGainScalesSignal) {
  const auto inv = build_universal_inventory(20, 5);
  Synthesizer synth(inv, 8000.0);
  const std::vector<std::size_t> phones = {1, 2, 3};
  SpeakerProfile speaker;  // defaults
  ChannelProfile quiet, loud;
  quiet.gain = 0.5;
  quiet.snr_db = 60.0;
  loud.gain = 2.0;
  loud.snr_db = 60.0;
  util::Rng rng_a(5), rng_b(5);
  const auto a = synth.render(phones, speaker, quiet, rng_a);
  const auto b = synth.render(phones, speaker, loud, rng_b);
  double ea = 0.0, eb = 0.0;
  for (float s : a.samples) ea += static_cast<double>(s) * s;
  for (float s : b.samples) eb += static_cast<double>(s) * s;
  EXPECT_GT(eb, ea * 4.0);  // 4x gain -> 16x energy (same noise seed)
}

TEST(Dataset, QuickPresetBuildsConsistentCorpus) {
  CorpusConfig cfg = CorpusConfig::preset(util::Scale::kQuick, 2024);
  cfg.family.num_languages = 3;
  cfg.train_utts_per_language = 4;
  cfg.dev_utts_per_language_per_tier = 2;
  cfg.test_utts_per_language_per_tier = 2;
  cfg.am_train_utts_per_native = 3;
  cfg.num_native_languages = 2;
  const auto corpus = LreCorpus::build(cfg);

  EXPECT_EQ(corpus.num_target_languages(), 3u);
  EXPECT_EQ(corpus.vsm_train().size(), 12u);
  EXPECT_EQ(corpus.dev().size(), 3u * 2u * kNumTiers);
  EXPECT_EQ(corpus.test().size(), 3u * 2u * kNumTiers);
  EXPECT_EQ(corpus.am_train(0).size(), 3u);
  EXPECT_EQ(corpus.am_train(1).size(), 3u);

  // AM train has alignment; VSM/test sets do not (label-only, like real LRE
  // data).
  EXPECT_FALSE(corpus.am_train(0)[0].alignment.empty());
  EXPECT_TRUE(corpus.vsm_train()[0].alignment.empty());
  EXPECT_TRUE(corpus.test()[0].alignment.empty());

  // Labels are in range; tier indices partition the test set.
  std::set<std::size_t> seen;
  for (std::size_t tier = 0; tier < kNumTiers; ++tier) {
    for (std::size_t i : corpus.test_indices(static_cast<DurationTier>(tier))) {
      EXPECT_TRUE(seen.insert(i).second);
      EXPECT_GE(corpus.test()[i].language, 0);
      EXPECT_LT(corpus.test()[i].language, 3);
    }
  }
  EXPECT_EQ(seen.size(), corpus.test().size());
}

TEST(Dataset, TierDurationsOrdered) {
  CorpusConfig cfg = CorpusConfig::preset(util::Scale::kQuick, 11);
  cfg.family.num_languages = 2;
  cfg.train_utts_per_language = 2;
  cfg.dev_utts_per_language_per_tier = 1;
  cfg.test_utts_per_language_per_tier = 2;
  cfg.num_native_languages = 1;
  cfg.am_train_utts_per_native = 1;
  const auto corpus = LreCorpus::build(cfg);
  double mean_len[kNumTiers] = {0, 0, 0};
  std::size_t count[kNumTiers] = {0, 0, 0};
  for (const auto& u : corpus.test()) {
    mean_len[static_cast<std::size_t>(u.tier)] +=
        static_cast<double>(u.samples.size());
    ++count[static_cast<std::size_t>(u.tier)];
  }
  for (std::size_t t = 0; t < kNumTiers; ++t) {
    ASSERT_GT(count[t], 0u);
    mean_len[t] /= static_cast<double>(count[t]);
  }
  EXPECT_GT(mean_len[0], mean_len[1]);  // "30s" > "10s"
  EXPECT_GT(mean_len[1], mean_len[2]);  // "10s" > "3s"
}

TEST(Dataset, DeterministicAcrossBuilds) {
  CorpusConfig cfg = CorpusConfig::preset(util::Scale::kQuick, 5);
  cfg.family.num_languages = 2;
  cfg.train_utts_per_language = 2;
  cfg.dev_utts_per_language_per_tier = 1;
  cfg.test_utts_per_language_per_tier = 1;
  cfg.num_native_languages = 1;
  cfg.am_train_utts_per_native = 1;
  const auto a = LreCorpus::build(cfg);
  const auto b = LreCorpus::build(cfg);
  ASSERT_EQ(a.test().size(), b.test().size());
  for (std::size_t i = 0; i < a.test().size(); ++i) {
    ASSERT_EQ(a.test()[i].samples.size(), b.test()[i].samples.size());
    EXPECT_EQ(a.test()[i].samples, b.test()[i].samples) << "utterance " << i;
  }
}

// --- Lazy rendering ------------------------------------------------------

CorpusConfig lazy_config() {
  CorpusConfig cfg = CorpusConfig::preset(util::Scale::kQuick, 31);
  cfg.family.num_languages = 3;
  cfg.train_utts_per_language = 3;
  cfg.dev_utts_per_language_per_tier = 1;
  cfg.test_utts_per_language_per_tier = 2;
  cfg.num_native_languages = 2;
  cfg.am_train_utts_per_native = 3;
  return cfg;
}

std::uint64_t rendered_so_far() {
  return obs::Metrics::counter("corpus.rendered_utterances").value();
}

/// Every split's audio accessor, in the order build() lays the splits out.
std::vector<std::function<const Dataset&()>> audio_accessors(
    const LreCorpus& corpus) {
  return {[&]() -> const Dataset& { return corpus.am_train(0); },
          [&]() -> const Dataset& { return corpus.am_train(1); },
          [&]() -> const Dataset& { return corpus.vsm_train(); },
          [&]() -> const Dataset& { return corpus.dev(); },
          [&]() -> const Dataset& { return corpus.test(); }};
}

/// Byte equality of two renders of one split: ids, labels, tiers, PCM and
/// alignments.
void expect_same_bytes(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].language, b[i].language);
    EXPECT_EQ(a[i].tier, b[i].tier);
    ASSERT_EQ(a[i].samples.size(), b[i].samples.size()) << "utterance " << i;
    EXPECT_EQ(std::memcmp(a[i].samples.data(), b[i].samples.data(),
                          a[i].samples.size() * sizeof(float)),
              0)
        << "utterance " << i;
    ASSERT_EQ(a[i].alignment.size(), b[i].alignment.size());
    for (std::size_t j = 0; j < a[i].alignment.size(); ++j) {
      EXPECT_EQ(a[i].alignment[j].phone, b[i].alignment[j].phone);
      EXPECT_EQ(a[i].alignment[j].start_sample, b[i].alignment[j].start_sample);
      EXPECT_EQ(a[i].alignment[j].end_sample, b[i].alignment[j].end_sample);
    }
  }
}

TEST(LazyCorpus, BuildRendersNothingAndMetadataMatchesTheAudio) {
  const CorpusConfig cfg = lazy_config();
  const std::uint64_t before = rendered_so_far();
  const auto corpus = LreCorpus::build(cfg);
  EXPECT_EQ(rendered_so_far(), before);

  // Metadata accessors never render.
  EXPECT_EQ(corpus.vsm_train_info().size(), 9u);
  EXPECT_EQ(corpus.dev_info().size(), 3u * kNumTiers);
  EXPECT_EQ(corpus.test_info().size(), 3u * 2u * kNumTiers);
  EXPECT_EQ(corpus.test_indices(DurationTier::k3s).size(), 6u);
  EXPECT_EQ(corpus.dev_indices(DurationTier::k10s).size(), 3u);
  EXPECT_EQ(rendered_so_far(), before);

  // Each audio accessor renders its split once, whose utterances carry the
  // metadata build() announced.
  EXPECT_EQ(corpus.test().size(), corpus.test_info().size());
  EXPECT_EQ(rendered_so_far(), before + corpus.test_info().size());
  const auto check = [](const Dataset& audio,
                        const std::vector<UtteranceInfo>& info) {
    ASSERT_EQ(audio.size(), info.size());
    for (std::size_t i = 0; i < info.size(); ++i) {
      EXPECT_EQ(audio[i].id, info[i].id);
      EXPECT_EQ(audio[i].language, info[i].language);
      EXPECT_EQ(audio[i].tier, info[i].tier);
    }
  };
  check(corpus.vsm_train(), corpus.vsm_train_info());
  check(corpus.dev(), corpus.dev_info());
  check(corpus.test(), corpus.test_info());
  EXPECT_EQ(rendered_so_far(),
            before + 9u + 3u * kNumTiers + 3u * 2u * kNumTiers);
}

TEST(LazyCorpus, SameBytesWhicheverSplitIsFirstAndAtPoolWidths1And4) {
  const CorpusConfig cfg = lazy_config();
  util::ThreadPool narrow(1);
  util::ThreadPool wide(4);
  const auto forward = LreCorpus::build(cfg, narrow);
  const auto backward = LreCorpus::build(cfg, wide);
  const auto wide_forward = LreCorpus::build(cfg, wide);

  const auto fwd = audio_accessors(forward);
  const auto bwd = audio_accessors(backward);
  const auto wfwd = audio_accessors(wide_forward);
  for (const auto& touch : fwd) (void)touch();
  for (auto it = bwd.rbegin(); it != bwd.rend(); ++it) (void)(*it)();
  for (const auto& touch : wfwd) (void)touch();
  for (std::size_t split = 0; split < fwd.size(); ++split) {
    SCOPED_TRACE("split " + std::to_string(split));
    expect_same_bytes(fwd[split](), bwd[split]());
    expect_same_bytes(fwd[split](), wfwd[split]());
  }
}

TEST(LazyCorpus, ConcurrentFirstTouchRendersOnce) {
  const CorpusConfig cfg = lazy_config();
  util::ThreadPool pool(4);
  const auto corpus = LreCorpus::build(cfg, pool);
  const std::uint64_t before = rendered_so_far();

  constexpr std::size_t kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<const Dataset*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      seen[t] = &corpus.dev();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(rendered_so_far() - before, corpus.dev_info().size());
  for (const Dataset* d : seen) EXPECT_EQ(d, seen.front());
  util::ThreadPool narrow(1);
  const auto reference = LreCorpus::build(cfg, narrow);
  expect_same_bytes(*seen.front(), reference.dev());
}

}  // namespace
}  // namespace phonolid::corpus
