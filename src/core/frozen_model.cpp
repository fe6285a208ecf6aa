#include "core/frozen_model.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/experiment.h"
#include "eval/metrics.h"
#include "obs/json.h"
#include "pipeline/artifact_store.h"
#include "pipeline/stage_key.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace phonolid::core {

namespace {

constexpr char kBundleMagic[4] = {'P', 'F', 'Z', 'M'};
constexpr char kManifestName[] = "MANIFEST.json";

pipeline::StageKey bundle_key(const std::string& scale, std::uint64_t seed) {
  return pipeline::KeyHasher("bundle")
      .add_u64(kBundleFormatVersion)
      .add_string(scale)
      .add_u64(seed)
      .finish();
}

/// The "PFZM" payload inside the ArtifactStore envelope.  `subsystems` are
/// borrowed — both the freeze path (Experiment-owned) and save_bundle
/// (FrozenModel-owned) serialize through the same writer.
void write_payload(std::ostream& out, const std::string& scale,
                   std::uint64_t seed, double sample_rate,
                   const std::vector<std::string>& languages,
                   std::span<const Subsystem* const> subsystems,
                   const std::vector<FrozenHead>& heads,
                   const backend::ScoreFusion& fusion) {
  util::BinaryWriter w(out);
  w.write_magic(kBundleMagic, kBundleFormatVersion);
  w.write_string(scale);
  w.write_u64(seed);
  w.write_f64(sample_rate);
  w.write_u64(languages.size());
  for (const auto& lang : languages) w.write_string(lang);
  w.write_u64(subsystems.size());
  for (const Subsystem* sub : subsystems) {
    sub->spec().serialize(out);
    sub->serialize_front_end(out);
    sub->tfllr().serialize(out);
  }
  w.write_u64(heads.size());
  for (const FrozenHead& head : heads) {
    w.write_u32(head.subsystem);
    head.vsm.serialize(out);
  }
  fusion.serialize(out);
}

void write_bundle_dir(const std::string& dir, const std::string& scale,
                      std::uint64_t seed, double sample_rate,
                      const std::vector<std::string>& languages,
                      std::span<const Subsystem* const> subsystems,
                      const std::vector<FrozenHead>& heads,
                      const backend::ScoreFusion& fusion) {
  pipeline::ArtifactStore store(dir);
  const pipeline::StageKey key = bundle_key(scale, seed);
  store.save(key, [&](std::ostream& out) {
    write_payload(out, scale, seed, sample_rate, languages, subsystems, heads,
                  fusion);
  });
  // The envelope save is deliberately non-fatal for pipeline caches; a
  // freeze that produced no artifact must fail instead.
  if (!std::ifstream(store.path_for(key)).good()) {
    throw std::runtime_error("freeze: failed to write bundle artifact under " +
                             dir);
  }

  obs::Json manifest = obs::Json::object();
  manifest["bundle_format"] = obs::Json(kBundleFormatVersion);
  manifest["pipeline_format"] = obs::Json(pipeline::kPipelineFormatVersion);
  manifest["stage"] = obs::Json(key.stage);
  manifest["key"] = obs::Json(key.hex());
  manifest["scale"] = obs::Json(scale);
  manifest["seed"] = obs::Json(seed);
  manifest["sample_rate"] = obs::Json(sample_rate);
  obs::Json langs = obs::Json::array();
  for (const auto& lang : languages) langs.push_back(obs::Json(lang));
  manifest["languages"] = std::move(langs);
  manifest["subsystems"] = obs::Json(subsystems.size());
  manifest["heads"] = obs::Json(heads.size());

  const std::string manifest_path = dir + "/" + kManifestName;
  std::ofstream out(manifest_path, std::ios::trunc);
  manifest.dump(out);
  out << '\n';
  if (!out) {
    throw std::runtime_error("freeze: failed to write " + manifest_path);
  }
  PHONOLID_INFO("core") << "froze model bundle at " << dir << " ("
                        << subsystems.size() << " front ends, " << heads.size()
                        << " heads)";
}

std::vector<const Subsystem*> borrow(
    const std::vector<std::unique_ptr<Subsystem>>& subsystems) {
  std::vector<const Subsystem*> out;
  out.reserve(subsystems.size());
  for (const auto& sub : subsystems) out.push_back(sub.get());
  return out;
}

}  // namespace

FrozenModel::FrozenModel(std::string scale, std::uint64_t seed,
                         double sample_rate,
                         std::vector<std::string> languages,
                         std::vector<std::unique_ptr<Subsystem>> subsystems,
                         std::vector<FrozenHead> heads,
                         backend::ScoreFusion fusion)
    : scale_(std::move(scale)),
      seed_(seed),
      sample_rate_(sample_rate),
      languages_(std::move(languages)),
      subsystems_(std::move(subsystems)),
      groups_(borrow(subsystems_)),
      heads_(std::move(heads)),
      fusion_(std::move(fusion)) {
  if (languages_.size() < 2) {
    throw std::invalid_argument("FrozenModel: need at least two languages");
  }
  if (subsystems_.empty() || heads_.empty()) {
    throw std::invalid_argument("FrozenModel: need subsystems and heads");
  }
  for (const FrozenHead& head : heads_) {
    if (head.subsystem >= subsystems_.size()) {
      throw std::invalid_argument("FrozenModel: head subsystem out of range");
    }
    if (head.vsm.num_classes() != languages_.size()) {
      throw std::invalid_argument("FrozenModel: head class count mismatch");
    }
  }
  if (fusion_.num_subsystems() != heads_.size()) {
    throw std::invalid_argument(
        "FrozenModel: fusion block count != head count");
  }
}

void FrozenModel::save_bundle(const std::string& dir) const {
  write_bundle_dir(dir, scale_, seed_, sample_rate_, languages_,
                   borrow(subsystems_), heads_, fusion_);
}

void FrozenModel::write_bundle(const std::string& dir, const Experiment& exp,
                               const std::vector<FrozenHead>& heads,
                               const backend::ScoreFusion& fusion) {
  std::vector<std::string> languages;
  for (const corpus::LanguageSpec& spec : exp.corpus().target_languages()) {
    languages.push_back(spec.name());
  }
  std::vector<const Subsystem*> subs;
  subs.reserve(exp.num_subsystems());
  for (std::size_t s = 0; s < exp.num_subsystems(); ++s) {
    subs.push_back(&exp.subsystem(s));
  }
  write_bundle_dir(dir, util::to_string(exp.config().scale),
                   exp.config().seed, exp.config().corpus.sample_rate,
                   languages, subs, heads, fusion);
}

FrozenModel FrozenModel::load_bundle(const std::string& dir) {
  const std::string manifest_path = dir + "/" + kManifestName;
  std::ifstream manifest_in(manifest_path);
  if (!manifest_in) {
    throw std::runtime_error("not a model bundle (missing " + manifest_path +
                             ")");
  }
  std::ostringstream manifest_text;
  manifest_text << manifest_in.rdbuf();
  const obs::Json manifest = obs::Json::parse(manifest_text.str());

  const obs::Json* format = manifest.find("bundle_format");
  if (format == nullptr || !format->is_int()) {
    throw std::runtime_error("bundle manifest: missing bundle_format");
  }
  if (format->as_int() != kBundleFormatVersion) {
    throw std::runtime_error(
        "bundle format v" + std::to_string(format->as_int()) +
        " unsupported (this build reads v" +
        std::to_string(kBundleFormatVersion) + ")");
  }
  const obs::Json* stage = manifest.find("stage");
  const obs::Json* key_hex = manifest.find("key");
  if (stage == nullptr || !stage->is_string() || key_hex == nullptr ||
      !key_hex->is_string()) {
    throw std::runtime_error("bundle manifest: missing stage key");
  }
  pipeline::StageKey key;
  key.stage = stage->as_string();
  key.hash = std::strtoull(key_hex->as_string().c_str(), nullptr, 16);

  pipeline::ArtifactStore store(dir);
  std::string scale;
  std::uint64_t seed = 0;
  double sample_rate = 0.0;
  std::vector<std::string> languages;
  std::vector<std::unique_ptr<Subsystem>> subsystems;
  std::vector<FrozenHead> heads;
  backend::ScoreFusion fusion;
  const bool hit = store.load(key, [&](std::istream& in) {
    util::BinaryReader r(in);
    r.expect_magic(kBundleMagic, kBundleFormatVersion);
    scale = r.read_string();
    seed = r.read_u64();
    sample_rate = r.read_f64();
    const std::uint64_t num_languages = r.read_u64();
    if (num_languages > 4096) {
      throw util::SerializeError("bundle: implausible language count");
    }
    for (std::uint64_t i = 0; i < num_languages; ++i) {
      languages.push_back(r.read_string());
    }
    const std::uint64_t num_subsystems = r.read_u64();
    if (num_subsystems > 4096) {
      throw util::SerializeError("bundle: implausible subsystem count");
    }
    for (std::uint64_t s = 0; s < num_subsystems; ++s) {
      FrontEndSpec spec = FrontEndSpec::deserialize(in);
      TrainedFrontEnd fe = TrainedFrontEnd::deserialize(in);
      auto sub = Subsystem::assemble(sample_rate, spec, std::move(fe));
      sub->set_tfllr(phonotactic::TfllrScaler::deserialize(in));
      subsystems.push_back(std::move(sub));
    }
    const std::uint64_t num_heads = r.read_u64();
    if (num_heads > 4096) {
      throw util::SerializeError("bundle: implausible head count");
    }
    for (std::uint64_t h = 0; h < num_heads; ++h) {
      FrozenHead head;
      head.subsystem = r.read_u32();
      head.vsm = svm::VsmModel::deserialize(in);
      heads.push_back(std::move(head));
    }
    fusion = backend::ScoreFusion::deserialize(in);
  });
  if (!hit) {
    throw std::runtime_error("bundle at " + dir +
                             " is missing or corrupt (stage key " +
                             key.stage + "-" + key.hex() + ")");
  }
  return FrozenModel(std::move(scale), seed, sample_rate, std::move(languages),
                     std::move(subsystems), std::move(heads),
                     std::move(fusion));
}

BatchScore FrozenModel::score_batch(
    const std::vector<std::span<const float>>& utterances) const {
  const std::size_t n = utterances.size();
  const std::size_t num_subs = subsystems_.size();
  const std::size_t k = languages_.size();
  BatchScore out;
  if (n == 0) {
    out.llr = util::Matrix(0, k);
    return out;
  }

  // Two phases on the helping-wait pool.  First each distinct feature config
  // once per utterance, then every subsystem's tail on its group's features
  // (the feature pass's time split evenly across the group).  These are the
  // offline decode's building blocks, so the supervectors match it bit for
  // bit.
  const std::size_t num_groups = groups_.num_groups();
  std::vector<util::Matrix> feats(n * num_groups);
  std::vector<double> feat_s(n * num_groups);
  util::parallel_for(0, n * num_groups, [&](std::size_t f) {
    feats[f] = groups_.features(f % num_groups, utterances[f / num_groups],
                                /*chunk_samples=*/0, feat_s[f]);
  });
  std::vector<std::vector<phonotactic::SparseVec>> svs(
      num_subs, std::vector<phonotactic::SparseVec>(n));
  util::parallel_for(0, num_subs * n, [&](std::size_t idx) {
    const std::size_t s = idx / n;
    const std::size_t i = idx % n;
    const std::size_t f = i * num_groups + groups_.group_of(s);
    svs[s][i] = groups_.tail(s, feats[f], utterances[i].size(), feat_s[f],
                             StreamingOptions{});
  });

  // Per-head score blocks, then the exact offline fusion chain: Matrix
  // overloads throughout (same accumulation order as evaluate()).
  std::vector<util::Matrix> blocks(heads_.size());
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    blocks[h].resize(n, k);
    for (std::size_t i = 0; i < n; ++i) {
      heads_[h].vsm.score(svs[heads_[h].subsystem][i], blocks[h].row(i));
    }
  }
  const util::Matrix log_post = fusion_.apply(blocks);
  out.llr = eval::log_posteriors_to_llr(log_post);
  out.best.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto row = out.llr.row(i);
    std::size_t best = 0;
    for (std::size_t c = 1; c < k; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out.best[i] = static_cast<std::uint32_t>(best);
  }
  return out;
}

}  // namespace phonolid::core
