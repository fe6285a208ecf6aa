// Streaming-session equivalence suite: for ANY chunking of the same audio,
// the streaming front end, decoder session and subsystem chain must be
// BIT-identical to the batch path — features, lattices, counts and
// supervectors compare with exact float equality, never tolerances.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/subsystem.h"
#include "decoder/phone_loop_decoder.h"
#include "dsp/streaming_features.h"
#include "phonotactic/ngram_counts.h"
#include "phonotactic/supervector.h"

namespace phonolid {
namespace {

// ---------------------------------------------------------------------------
// dsp: StreamingFeatures vs the batch pipeline
// ---------------------------------------------------------------------------

std::vector<float> synth_signal(std::size_t n) {
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto noise = static_cast<float>((i * 2654435761u >> 16) & 0xffu) /
                           255.0f -
                       0.5f;
    x[i] = 0.6f * std::sin(0.071 * static_cast<double>(i) + 0.3) +
           0.3f * std::sin(0.0173 * static_cast<double>(i)) + 0.1f * noise;
  }
  return x;
}

util::Matrix stream_in_chunks(const dsp::FeaturePipeline& pipeline,
                              const std::vector<float>& signal,
                              std::size_t chunk) {
  dsp::StreamingFeatures stream(pipeline);
  if (chunk == 0) {
    stream.push(signal);
  } else {
    for (std::size_t i = 0; i < signal.size(); i += chunk) {
      stream.push(std::span<const float>(signal).subspan(
          i, std::min(chunk, signal.size() - i)));
    }
  }
  stream.finish();
  return stream.take();
}

void expect_matrices_identical(const util::Matrix& a, const util::Matrix& b,
                               const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t t = 0; t < a.rows(); ++t) {
    for (std::size_t d = 0; d < a.cols(); ++d) {
      ASSERT_EQ(a(t, d), b(t, d))
          << what << ": mismatch at (" << t << ", " << d << ")";
    }
  }
}

TEST(StreamingFeatures, BitIdenticalAcrossChunkSizesMfccAndPlp) {
  const std::vector<float> signal = synth_signal(8000 + 123);
  for (const auto kind : {dsp::FeatureKind::kMfcc, dsp::FeatureKind::kPlp}) {
    dsp::FeaturePipelineConfig cfg;
    cfg.kind = kind;
    cfg.cmvn = false;  // compare the raw streaming rows
    const dsp::FeaturePipeline pipeline(cfg);
    const util::Matrix batch = stream_in_chunks(pipeline, signal, 0);
    // 1 sample, one frame shift (80), 160 samples, a prime, > utterance.
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{80},
                                    std::size_t{160}, std::size_t{401},
                                    std::size_t{100000}}) {
      expect_matrices_identical(batch,
                                stream_in_chunks(pipeline, signal, chunk),
                                kind == dsp::FeatureKind::kMfcc ? "mfcc"
                                                                : "plp");
    }
  }
}

TEST(StreamingFeatures, MatchesBatchPipelineWithCmvnAndWithoutDeltas) {
  const std::vector<float> signal = synth_signal(6000);
  for (const bool deltas : {true, false}) {
    dsp::FeaturePipelineConfig cfg;
    cfg.deltas = deltas;
    const dsp::FeaturePipeline pipeline(cfg);
    const util::Matrix batch = pipeline.process(signal);
    util::Matrix streamed = stream_in_chunks(pipeline, signal, 257);
    dsp::cmvn_inplace(streamed, cfg.cmvn_variance);
    expect_matrices_identical(batch, streamed, deltas ? "deltas" : "statics");
    expect_matrices_identical(batch, pipeline.process(signal, 257),
                              "chunked process()");
  }
}

TEST(StreamingFeatures, PrefixRowsAreFinal) {
  const std::vector<float> signal = synth_signal(4000);
  const dsp::FeaturePipeline pipeline{dsp::FeaturePipelineConfig{}};
  dsp::StreamingFeatures stream(pipeline);
  stream.push(std::span<const float>(signal).first(2500));
  const std::size_t ready = stream.num_rows();
  ASSERT_GT(ready, 0u);
  const util::Matrix prefix = stream.prefix(ready);
  stream.push(std::span<const float>(signal).subspan(2500));
  stream.finish();
  const util::Matrix full = stream.take();
  ASSERT_GE(full.rows(), ready);
  for (std::size_t t = 0; t < ready; ++t) {
    for (std::size_t d = 0; d < full.cols(); ++d) {
      ASSERT_EQ(prefix(t, d), full(t, d)) << "(" << t << ", " << d << ")";
    }
  }
}

TEST(StreamingFeatures, LifecycleErrorsAndEmptyInput) {
  const dsp::FeaturePipeline pipeline{dsp::FeaturePipelineConfig{}};
  dsp::StreamingFeatures stream(pipeline);
  EXPECT_THROW((void)stream.take(), std::logic_error);  // before finish()
  stream.push({});
  stream.finish();
  stream.finish();  // idempotent
  EXPECT_THROW(stream.push(synth_signal(100)), std::logic_error);
  const util::Matrix empty = stream.take();
  EXPECT_EQ(empty.rows(), 0u);
}

// ---------------------------------------------------------------------------
// decoder: DecodeSession vs decode_from_scores
// ---------------------------------------------------------------------------

util::Matrix synth_scores(std::size_t frames, std::size_t states) {
  util::Matrix m(frames, states);
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t s = 0; s < states; ++s) {
      m(t, s) = -2.0f +
                1.5f * std::sin(0.37 * static_cast<double>(t * states + s)) +
                (((t + s) % 7 == 0) ? 1.0f : 0.0f);
    }
  }
  return m;
}

class FlatModel final : public am::AcousticModel {
 public:
  explicit FlatModel(am::HmmTopology topo) : topo_(topo) {}
  [[nodiscard]] std::size_t num_states() const noexcept override {
    return topo_.num_states();
  }
  [[nodiscard]] std::size_t feature_dim() const noexcept override { return 1; }
  void score(const util::Matrix& features, util::Matrix& out) const override {
    out.resize(features.rows(), num_states());
    for (std::size_t t = 0; t < features.rows(); ++t) {
      for (std::size_t s = 0; s < num_states(); ++s) out(t, s) = 0.0f;
    }
  }

 private:
  am::HmmTopology topo_;
};

void expect_lattices_identical(const decoder::Lattice& a,
                               const decoder::Lattice& b) {
  ASSERT_EQ(a.num_frames(), b.num_frames());
  ASSERT_EQ(a.best_path(), b.best_path());
  ASSERT_EQ(a.edges().size(), b.edges().size());
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    const auto& ea = a.edges()[i];
    const auto& eb = b.edges()[i];
    ASSERT_EQ(ea.start_node, eb.start_node) << "edge " << i;
    ASSERT_EQ(ea.end_node, eb.end_node) << "edge " << i;
    ASSERT_EQ(ea.phone, eb.phone) << "edge " << i;
    ASSERT_EQ(ea.score, eb.score) << "edge " << i;
    ASSERT_EQ(ea.posterior, eb.posterior) << "edge " << i;
  }
}

TEST(DecodeSession, BitIdenticalToBatchAcrossChunkSizes) {
  const am::HmmTopology topo{5, 3};
  const FlatModel model(topo);
  const decoder::PhoneLoopDecoder decoder(
      model, topo, am::HmmTransitions::uniform(topo.num_states(), 2.0));
  const util::Matrix scores = synth_scores(23, topo.num_states());
  const decoder::Lattice batch = decoder.decode_from_scores(scores);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{23},
                                  std::size_t{100}}) {
    decoder::DecodeSession session(decoder);
    for (std::size_t begin = 0; begin < scores.rows(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, scores.rows());
      util::Matrix slice(end - begin, scores.cols());
      for (std::size_t t = begin; t < end; ++t) {
        for (std::size_t s = 0; s < scores.cols(); ++s) {
          slice(t - begin, s) = scores(t, s);
        }
      }
      session.advance(slice);
    }
    expect_lattices_identical(batch, session.finalize());
  }
}

TEST(DecodeSession, LifecycleErrorsAndEmptyInput) {
  const am::HmmTopology topo{3, 3};
  const FlatModel model(topo);
  const decoder::PhoneLoopDecoder decoder(
      model, topo, am::HmmTransitions::uniform(topo.num_states(), 2.0));

  decoder::DecodeSession session(decoder);
  (void)session.finalize();
  EXPECT_THROW((void)session.finalize(), std::logic_error);
  EXPECT_THROW(session.advance(util::Matrix(1, topo.num_states())),
               std::logic_error);

  // Zero frames: streaming and batch agree on the empty lattice.
  decoder::DecodeSession empty_session(decoder);
  empty_session.advance(util::Matrix(0, topo.num_states()));
  const decoder::Lattice streamed = empty_session.finalize();
  const decoder::Lattice batch =
      decoder.decode_from_scores(util::Matrix(0, topo.num_states()));
  expect_lattices_identical(batch, streamed);
  EXPECT_EQ(streamed.num_frames(), 0u);
}

// ---------------------------------------------------------------------------
// phonotactic: mergeable partial accumulators
// ---------------------------------------------------------------------------

TEST(CountAccumulator, SegmentSumsAreExactAndOrderedDeterministically) {
  using phonotactic::SparseVec;
  const SparseVec a = SparseVec::from_pairs({{3, 1.5f}, {7, 2.0f}, {1, 0.25f}});
  const SparseVec b = SparseVec::from_pairs({{7, 0.5f}, {2, 4.0f}});

  phonotactic::CountAccumulator acc;
  EXPECT_TRUE(acc.empty());
  acc.add(a);
  acc.add(b);
  const SparseVec sum = acc.build();
  EXPECT_EQ(sum.indices(), (std::vector<std::uint32_t>{1, 2, 3, 7}));
  EXPECT_EQ(sum.values(), (std::vector<float>{0.25f, 4.0f, 1.5f, 2.5f}));

  // merge() of two partial accumulators == add() of their segments.
  phonotactic::CountAccumulator left, right;
  left.add(a);
  right.add(b);
  left.merge(right);
  const SparseVec merged = left.build();
  EXPECT_EQ(merged.indices(), sum.indices());
  EXPECT_EQ(merged.values(), sum.values());

  // build() is a snapshot: accumulating further still works.
  acc.add(a);
  EXPECT_EQ(acc.build().values(),
            (std::vector<float>{0.5f, 4.0f, 3.0f, 4.5f}));
}

TEST(TfllrScaler, MergeMatchesSequentialAccumulation) {
  using phonotactic::SparseVec;
  const SparseVec s1 = SparseVec::from_pairs({{0, 1.0f}, {3, 0.5f}});
  const SparseVec s2 = SparseVec::from_pairs({{1, 2.0f}, {3, 0.25f}});
  const SparseVec s3 = SparseVec::from_pairs({{2, 0.125f}});

  phonotactic::TfllrScaler sequential(4);
  sequential.accumulate(s1);
  sequential.accumulate(s2);
  sequential.accumulate(s3);
  sequential.finalize();

  phonotactic::TfllrScaler shard_a(4), shard_b(4);
  shard_a.accumulate(s1);
  shard_a.accumulate(s2);
  shard_b.accumulate(s3);
  shard_a.merge(shard_b);
  shard_a.finalize();

  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sequential.scale_of(i), shard_a.scale_of(i)) << "dim " << i;
  }

  phonotactic::TfllrScaler unfinalized(4), finalized(4), mismatched(5);
  finalized.finalize();
  EXPECT_THROW(unfinalized.merge(finalized), std::logic_error);
  EXPECT_THROW(finalized.merge(unfinalized), std::logic_error);
  EXPECT_THROW(unfinalized.merge(mismatched), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// core: StreamingSession on a micro-corpus subsystem
// ---------------------------------------------------------------------------

corpus::CorpusConfig micro_corpus_config() {
  corpus::CorpusConfig cfg =
      corpus::CorpusConfig::preset(util::Scale::kQuick, 47);
  cfg.family.num_languages = 2;
  cfg.num_universal_phones = 14;
  cfg.train_utts_per_language = 4;
  cfg.dev_utts_per_language_per_tier = 1;
  cfg.test_utts_per_language_per_tier = 2;
  cfg.num_native_languages = 1;
  cfg.am_train_utts_per_native = 8;
  cfg.am_train_seconds = 1.5;
  return cfg;
}

core::FrontEndSpec micro_spec() {
  core::FrontEndSpec spec;
  spec.name = "micro";
  spec.family = core::ModelFamily::kGmmHmm;
  spec.num_phones = 6;
  spec.native_language = 0;
  spec.hidden_sizes = {12};
  spec.gmm_components = 2;
  spec.seed_salt = 0x99;
  return spec;
}

void expect_supervectors_identical(const phonotactic::SparseVec& a,
                                   const phonotactic::SparseVec& b) {
  ASSERT_EQ(a.indices(), b.indices());
  ASSERT_EQ(a.values(), b.values());
}

class StreamingSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new corpus::LreCorpus(
        corpus::LreCorpus::build(micro_corpus_config()));
    subsystem_ = core::Subsystem::build(*corpus_, micro_spec(), 7).release();
  }
  static void TearDownTestSuite() {
    delete subsystem_;
    subsystem_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }
  void TearDown() override { subsystem_->set_batch_chunk_samples(0); }

  static corpus::LreCorpus* corpus_;
  static core::Subsystem* subsystem_;
};

corpus::LreCorpus* StreamingSessionTest::corpus_ = nullptr;
core::Subsystem* StreamingSessionTest::subsystem_ = nullptr;

TEST_F(StreamingSessionTest, ProcessBitIdenticalAcrossChunkSizes) {
  const auto& utt = corpus_->test()[0];
  subsystem_->set_batch_chunk_samples(0);
  const phonotactic::SparseVec batch_sv = subsystem_->process(utt);
  const decoder::Lattice batch_lat = subsystem_->decode(utt);
  // One frame shift, 160 samples, a prime, and longer-than-utterance.
  for (const std::size_t chunk : {std::size_t{80}, std::size_t{160},
                                  std::size_t{1009}, std::size_t{1 << 20}}) {
    subsystem_->set_batch_chunk_samples(chunk);
    expect_supervectors_identical(batch_sv, subsystem_->process(utt));
    expect_lattices_identical(batch_lat, subsystem_->decode(utt));
  }
}

TEST_F(StreamingSessionTest, ScoreStreamMatchesProcess) {
  const auto& utt = corpus_->test()[1];
  const phonotactic::SparseVec batch_sv = subsystem_->process(utt);
  core::StreamingOptions opts;
  opts.chunk_samples = 160;
  const core::StreamingResult res =
      subsystem_->score_stream(utt.samples, opts);
  expect_supervectors_identical(batch_sv, res.supervector);
  EXPECT_EQ(res.frames, res.lattice.num_frames());
  EXPECT_GT(res.audio_s, 0.0);
  EXPECT_TRUE(res.checkpoints.empty());
}

TEST_F(StreamingSessionTest, ZeroLengthUtteranceMatchesBatch) {
  corpus::Utterance empty;
  const phonotactic::SparseVec batch_sv = subsystem_->process(empty);
  const core::StreamingResult res =
      subsystem_->score_stream(empty.samples, core::StreamingOptions{});
  expect_supervectors_identical(batch_sv, res.supervector);
  EXPECT_EQ(res.frames, 0u);
  EXPECT_EQ(res.lattice.num_frames(), 0u);
}

TEST_F(StreamingSessionTest, SessionLifecycleErrors) {
  core::StreamingSession session = subsystem_->open_stream();
  session.push(synth_signal(500));
  (void)session.finalize();
  EXPECT_TRUE(session.finalized());
  EXPECT_THROW((void)session.finalize(), std::logic_error);
  EXPECT_THROW(session.push(synth_signal(10)), std::logic_error);
}

TEST_F(StreamingSessionTest, CheckpointsFireAtCadenceWithLlrs) {
  // Longest-tier utterance so several checkpoint intervals fit.
  const auto tier30 = corpus_->test_indices(corpus::DurationTier::k30s);
  ASSERT_FALSE(tier30.empty());
  const auto& utt = corpus_->test()[tier30[0]];
  const double audio_s = static_cast<double>(utt.samples.size()) /
                         micro_corpus_config().sample_rate;

  core::StreamingOptions opts;
  opts.chunk_samples = 160;  // 20 ms pushes
  opts.checkpoint_interval_s = 0.25;
  opts.scorer = [](const phonotactic::SparseVec& sv) {
    float sum = 0.0f;
    for (float v : sv.values()) sum += v;
    return std::vector<float>{sum, -sum};
  };
  const core::StreamingResult res =
      subsystem_->score_stream(utt.samples, opts);

  // At least one checkpoint per full interval (minus the tail) must fire.
  const auto expected = static_cast<std::size_t>(
      audio_s / opts.checkpoint_interval_s);
  ASSERT_GE(expected, 2u) << "micro corpus utterance too short for the test";
  EXPECT_GE(res.checkpoints.size(), expected - 1);
  double prev_audio = 0.0;
  std::size_t prev_frames = 0;
  for (const auto& cp : res.checkpoints) {
    EXPECT_GT(cp.audio_s, prev_audio);
    EXPECT_GE(cp.frames, prev_frames);
    ASSERT_EQ(cp.llr.size(), 2u);
    EXPECT_LT(cp.best_language, 2u);
    EXPECT_EQ(cp.llr[0], -cp.llr[1]);
    prev_audio = cp.audio_s;
    prev_frames = cp.frames;
  }

  // Checkpoints must not perturb the final (batch-identical) result.
  expect_supervectors_identical(subsystem_->process(utt), res.supervector);
}

TEST_F(StreamingSessionTest, CheckpointLlrEqualsBatchAnswerOnPrefix) {
  // A checkpoint is the exact batch chain on the delta-resolved feature
  // prefix: replaying the checkpoint's supervector through process()-like
  // machinery is covered by the lower layers; here we verify the scorer
  // sees a per-order-normalised, TFLLR-scaled supervector consistent with
  // the final one when the checkpoint covers the whole utterance.
  const auto& utt = corpus_->test()[0];
  std::vector<phonotactic::SparseVec> seen;
  core::StreamingOptions opts;
  opts.checkpoint_interval_s =
      static_cast<double>(utt.samples.size()) /
      micro_corpus_config().sample_rate / 2.0;
  opts.scorer = [&seen](const phonotactic::SparseVec& sv) {
    seen.push_back(sv);
    return std::vector<float>{0.0f};
  };
  core::StreamingSession session = subsystem_->open_stream(opts);
  session.push(utt.samples);  // one push: exactly one checkpoint fires
  const core::StreamingResult res = session.finalize();
  ASSERT_EQ(seen.size(), res.checkpoints.size());
  ASSERT_GE(seen.size(), 1u);
  // The prefix supervector covers fewer frames than the final one (delta
  // tail not yet resolved), so it differs — but both are unit-normalised
  // per order before TFLLR, so non-empty means well-formed.
  EXPECT_FALSE(seen.back().empty());
  EXPECT_LT(res.checkpoints.back().frames, res.frames);
}

TEST_F(StreamingSessionTest, ParallelSessionsAreIndependent) {
  // TSan target: concurrent sessions over one const Subsystem must share no
  // mutable state (per-session FFT scratch, rings, decoder tokens).
  constexpr std::size_t kThreads = 4;
  std::vector<phonotactic::SparseVec> serial(kThreads), parallel(kThreads);
  const auto& test_set = corpus_->test();
  for (std::size_t i = 0; i < kThreads; ++i) {
    serial[i] = subsystem_->process(test_set[i % test_set.size()]);
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      core::StreamingOptions opts;
      opts.chunk_samples = 80 + 7 * i;  // different chunkings per thread
      parallel[i] = subsystem_
                        ->score_stream(
                            test_set[i % test_set.size()].samples, opts)
                        .supervector;
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i) {
    expect_supervectors_identical(serial[i], parallel[i]);
  }
}

// ---------------------------------------------------------------------------
// core: front ends sharing one feature pass (FeatureGroups)
// ---------------------------------------------------------------------------

/// Two MFCC front ends and one PLP front end on the micro corpus.
class SharedFeaturesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new corpus::LreCorpus(
        corpus::LreCorpus::build(micro_corpus_config()));
    core::FrontEndSpec mfcc_a = micro_spec();
    core::FrontEndSpec mfcc_b = micro_spec();
    mfcc_b.name = "micro-b";
    mfcc_b.num_phones = 5;
    mfcc_b.seed_salt = 0x9a;
    core::FrontEndSpec plp = micro_spec();
    plp.name = "micro-plp";
    plp.feature = dsp::FeatureKind::kPlp;
    plp.seed_salt = 0x9b;
    for (const auto& spec : {mfcc_a, mfcc_b, plp}) {
      subsystems_.push_back(
          core::Subsystem::build(*corpus_, spec, 7).release());
    }
  }
  static void TearDownTestSuite() {
    for (core::Subsystem* sub : subsystems_) delete sub;
    subsystems_.clear();
    delete corpus_;
    corpus_ = nullptr;
  }
  void TearDown() override {
    for (core::Subsystem* sub : subsystems_) sub->set_batch_chunk_samples(0);
  }

  static std::vector<const core::Subsystem*> all() {
    return {subsystems_.begin(), subsystems_.end()};
  }

  /// A raw shared supervector as process() returns it: TFLLR-scaled when the
  /// spec enables it, the same arithmetic decode_splits applies.
  static phonotactic::SparseVec scaled(const core::Subsystem& sub,
                                       phonotactic::SparseVec sv) {
    if (sub.spec().use_tfllr) sub.tfllr().transform(sv);
    return sv;
  }

  static corpus::LreCorpus* corpus_;
  static std::vector<core::Subsystem*> subsystems_;
};

corpus::LreCorpus* SharedFeaturesTest::corpus_ = nullptr;
std::vector<core::Subsystem*> SharedFeaturesTest::subsystems_;

TEST_F(SharedFeaturesTest, SharedPathEqualsProcessAtEveryChunking) {
  const core::FeatureGroups groups(all());
  ASSERT_EQ(groups.num_groups(), 2u);
  EXPECT_EQ(groups.group_of(0), groups.group_of(1));
  EXPECT_NE(groups.group_of(0), groups.group_of(2));
  // Whole utterance, then the tier-1 gate's --chunk-ms 17 and 250.
  const double rate = micro_corpus_config().sample_rate;
  for (const double chunk_ms : {0.0, 17.0, 250.0}) {
    const auto chunk = static_cast<std::size_t>(chunk_ms * rate / 1000.0);
    for (core::Subsystem* sub : subsystems_) {
      sub->set_batch_chunk_samples(chunk);
    }
    for (const auto& utt : corpus_->test()) {
      const auto shared = groups.score(utt.samples, chunk);
      ASSERT_EQ(shared.size(), subsystems_.size());
      for (std::size_t s = 0; s < subsystems_.size(); ++s) {
        SCOPED_TRACE(::testing::Message()
                     << "chunk " << chunk << " subsystem " << s);
        expect_supervectors_identical(scaled(*subsystems_[s], shared[s]),
                                      subsystems_[s]->process(utt));
      }
    }
  }
}

TEST_F(SharedFeaturesTest, SameKindDifferentFrameShiftDoesNotShare) {
  const core::Subsystem& base = *subsystems_[0];
  std::stringstream wire;
  base.serialize_front_end(wire);
  dsp::FeaturePipelineConfig cfg = base.feature_pipeline().config();
  cfg.mfcc.frame_shift = 64;
  const auto shifted = core::Subsystem::assemble(
      cfg, base.spec(), core::TrainedFrontEnd::deserialize(wire));
  shifted->set_tfllr(base.tfllr());

  const core::FeatureGroups groups({&base, shifted.get()});
  EXPECT_EQ(groups.num_groups(), 2u);
  for (const auto& utt : corpus_->test()) {
    const auto shared = groups.score(utt.samples, 0);
    expect_supervectors_identical(scaled(base, shared[0]), base.process(utt));
    expect_supervectors_identical(scaled(*shifted, shared[1]),
                                  shifted->process(utt));
  }
}

TEST_F(SharedFeaturesTest, SharedSplitDecodeEqualsPerSubsystemProcess) {
  // decode_splits over all three refits each TFLLR on the same training
  // split, so the installed scalers (and process()) are unchanged.
  const std::vector<core::DecodedSupervectors> decoded =
      core::decode_splits(subsystems_, *corpus_, /*chunk_samples=*/136);
  ASSERT_EQ(decoded.size(), subsystems_.size());
  for (std::size_t s = 0; s < subsystems_.size(); ++s) {
    ASSERT_EQ(decoded[s].test.size(), corpus_->test().size());
    for (std::size_t i = 0; i < corpus_->test().size(); ++i) {
      expect_supervectors_identical(
          decoded[s].test[i], subsystems_[s]->process(corpus_->test()[i]));
    }
    ASSERT_EQ(decoded[s].dev.size(), corpus_->dev().size());
    for (std::size_t i = 0; i < corpus_->dev().size(); ++i) {
      expect_supervectors_identical(
          decoded[s].dev[i], subsystems_[s]->process(corpus_->dev()[i]));
    }
  }
}

TEST_F(SharedFeaturesTest, StageTimesCountEachFeaturePassOnce) {
  for (core::Subsystem* sub : subsystems_) sub->reset_stage_times();
  const core::FeatureGroups groups(all());
  const auto& utt = corpus_->test()[0];
  (void)groups.score(utt.samples, 0);
  // The two MFCC front ends split one pass evenly; the PLP one has its own.
  const core::StageTimes a = subsystems_[0]->stage_times();
  const core::StageTimes b = subsystems_[1]->stage_times();
  EXPECT_GT(a.feature_s, 0.0);
  EXPECT_EQ(a.feature_s, b.feature_s);
  EXPECT_GT(subsystems_[2]->stage_times().feature_s, 0.0);
  EXPECT_EQ(a.audio_s, b.audio_s);
  EXPECT_GT(a.decode_s, 0.0);
}

}  // namespace
}  // namespace phonolid
