#include "acoustic/ubm.h"

#include <cmath>
#include <stdexcept>

#include "dsp/features.h"
#include "la/kernels.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace phonolid::acoustic {

util::Matrix UbmLrSystem::features_of(const std::vector<float>& samples) const {
  util::Matrix ceps = mfcc_.extract(samples);
  if (config_.cmvn) dsp::cmvn_inplace(ceps, true);
  return compute_sdc(ceps, config_.sdc);
}

UbmLrSystem UbmLrSystem::train(const corpus::Dataset& train,
                               std::size_t num_languages,
                               const UbmMapConfig& config) {
  if (train.empty() || num_languages == 0) {
    throw std::invalid_argument("UbmLrSystem::train: bad inputs");
  }
  UbmLrSystem system;
  system.config_ = config;
  system.mfcc_ = dsp::MfccExtractor(config.mfcc);

  // Extract all features once (parallel over utterances).
  std::vector<util::Matrix> features(train.size());
  util::parallel_for(0, train.size(), [&](std::size_t i) {
    features[i] = system.features_of(train[i].samples);
  });
  const std::size_t dim = sdc_dim(config.sdc);
  std::size_t total_frames = 0;
  for (const auto& f : features) total_frames += f.rows();
  if (total_frames == 0) {
    throw std::invalid_argument("UbmLrSystem::train: no frames");
  }

  // --- UBM on (subsampled) pooled frames. ---
  util::Rng rng(util::derive_stream(config.seed, 0x0B17));
  const std::size_t ubm_frames =
      config.max_ubm_frames > 0
          ? std::min(total_frames, config.max_ubm_frames)
          : total_frames;
  const double keep = static_cast<double>(ubm_frames) /
                      static_cast<double>(total_frames);
  util::Matrix pool(ubm_frames, dim);
  std::size_t cursor = 0;
  for (const auto& f : features) {
    for (std::size_t t = 0; t < f.rows() && cursor < ubm_frames; ++t) {
      if (keep < 1.0 && !rng.bernoulli(keep)) continue;
      auto src = f.row(t);
      std::copy(src.begin(), src.end(), pool.row(cursor++).begin());
    }
  }
  pool.resize(cursor == 0 ? 1 : cursor, dim);
  if (cursor == 0) {
    throw std::invalid_argument("UbmLrSystem::train: subsampling left nothing");
  }
  am::GmmTrainConfig ubm_cfg;
  ubm_cfg.num_components = config.ubm_components;
  ubm_cfg.em_iters = config.ubm_em_iters;
  ubm_cfg.seed = util::derive_stream(config.seed, 0x0B18);
  system.ubm_.train(pool, ubm_cfg);

  // --- MAP adaptation of means, per language. ---
  // Component posteriors for a whole utterance come from one batched GEMM
  // against the UBM; the zeroth/first-order statistics are then a column
  // sum and a Gamma^T X product.
  const std::size_t m = system.ubm_.num_components();
  std::vector<util::Matrix> acc_x(num_languages, util::Matrix(m, dim, 0.0f));
  std::vector<std::vector<double>> acc_gamma(num_languages,
                                             std::vector<double>(m, 0.0));
  util::Matrix gamma;
  for (std::size_t i = 0; i < train.size(); ++i) {
    const auto lang = static_cast<std::size_t>(train[i].language);
    if (train[i].language < 0 || lang >= num_languages) {
      throw std::invalid_argument("UbmLrSystem::train: bad label");
    }
    const auto& f = features[i];
    if (f.rows() == 0) continue;
    system.ubm_.component_log_likelihoods(f, gamma);
    for (std::size_t t = 0; t < f.rows(); ++t) {
      auto row = gamma.row(t);
      const float lse = util::log_sum_exp(row);
      for (std::size_t c = 0; c < m; ++c) {
        row[c] = std::exp(row[c] - lse);
        acc_gamma[lang][c] += row[c];
      }
    }
    la::gemm_tn(gamma, f, acc_x[lang], 1.0f, /*accumulate=*/true);
  }
  system.adapted_means_.resize(num_languages);
  for (std::size_t l = 0; l < num_languages; ++l) {
    util::Matrix& means = system.adapted_means_[l];
    means.resize(m, dim);
    for (std::size_t c = 0; c < m; ++c) {
      const double occupancy = acc_gamma[l][c];
      const auto& ubm_mean = system.ubm_.component(c).mean();
      auto dst = means.row(c);
      for (std::size_t d = 0; d < dim; ++d) {
        // Reynolds MAP: (sum gamma x + tau mu) / (sum gamma + tau).
        dst[d] = static_cast<float>(
            (acc_x[l](c, d) + config.relevance * ubm_mean[d]) /
            (occupancy + config.relevance));
      }
    }
  }
  system.rebuild_adapted_scorer();
  PHONOLID_INFO("acoustic") << "trained GMM-UBM: " << m << " components, "
                            << num_languages << " MAP-adapted languages";
  return system;
}

void UbmLrSystem::rebuild_adapted_scorer() {
  const std::size_t m = ubm_.num_components();
  const std::size_t langs = adapted_means_.size();
  la::BatchedGaussians::Builder builder(ubm_.dim(), langs * m);
  lang_seg_.clear();
  lang_seg_.reserve(langs + 1);
  lang_seg_.push_back(0);
  for (std::size_t l = 0; l < langs; ++l) {
    for (std::size_t c = 0; c < m; ++c) {
      // Shared UBM covariances/weights, adapted mean.
      builder.add(adapted_means_[l].row(c), ubm_.component(c).var(),
                  ubm_.log_weights()[c]);
    }
    lang_seg_.push_back(lang_seg_.back() + m);
  }
  adapted_all_ = builder.build();
}

void UbmLrSystem::score(const corpus::Utterance& utt,
                        std::span<float> out) const {
  if (out.size() != num_languages()) {
    throw std::invalid_argument("UbmLrSystem::score: bad output span");
  }
  const util::Matrix feats = features_of(utt.samples);
  const std::size_t langs = num_languages();
  std::vector<double> totals(langs, 0.0);
  double ubm_total = 0.0;
  std::vector<float> ubm_ll;
  ubm_.log_likelihoods(feats, ubm_ll);
  for (const float ll : ubm_ll) ubm_total += ll;
  // All languages' adapted mixtures score as one GEMM; the per-language
  // mixture reduction is a segment log-sum-exp over the packed row.
  util::Matrix comp_scores;
  adapted_all_.score(feats, comp_scores);
  std::vector<float> lang_ll(langs);
  for (std::size_t t = 0; t < feats.rows(); ++t) {
    la::logsumexp_segments(comp_scores.row(t), lang_seg_, lang_ll);
    for (std::size_t l = 0; l < langs; ++l) totals[l] += lang_ll[l];
  }
  const double inv =
      feats.rows() > 0 ? 1.0 / static_cast<double>(feats.rows()) : 0.0;
  for (std::size_t l = 0; l < langs; ++l) {
    out[l] = static_cast<float>((totals[l] - ubm_total) * inv);
  }
}

util::Matrix UbmLrSystem::score_all(const corpus::Dataset& data) const {
  util::Matrix scores(data.size(), num_languages());
  util::parallel_for(0, data.size(), [&](std::size_t i) {
    score(data[i], scores.row(i));
  });
  return scores;
}

}  // namespace phonolid::acoustic
