// phonolid — the library's command-line tool.  Run it without
// arguments for the usage text, which is generated from the flag table
// below and the command table at the end of this file.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <csignal>

#include "core/experiment.h"
#include "core/frozen_model.h"
#include "core/stage_cache.h"
#include "serve/admin_http.h"
#include "serve/server.h"
#include "eval/diagnostics.h"
#include "obs/exporters.h"
#include "obs/ledger.h"
#include "pipeline/artifact_store.h"
#include "pipeline/stage_key.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/report_diff.h"
#include "util/flags.h"
#include "util/math_util.h"
#include "util/options.h"
#include "util/thread_pool.h"

namespace {

using namespace phonolid;
using enum util::FlagKind;
using util::ParsedFlags;

/// Every flag of every command, declared once; report-diff's come from its
/// gate table.  Values are checked against these rows as they are parsed.
const std::vector<util::FlagSpec>& flag_table() {
  static const std::vector<util::FlagSpec> table = [] {
    std::vector<util::FlagSpec> t = {
        {"scale", "quick|default|full", "corpus scale ($PHONOLID_SCALE)",
         kChoice},
        {"seed", "N", "master seed ($PHONOLID_SEED, else 20090704)", kInt, 0},
        {"report", "out.json", "write a structured JSON run report"},
        {"ledger", "l.jsonl",
         "decision ledger (JSONL): run/det/votes/export write it, "
         "explain/diag read it"},
        {"cache-dir", "D",
         "artifact store, so re-runs skip training and decoding "
         "($PHONOLID_CACHE)"},
        {"chunk-ms", "N", "stream audio in N ms chunks (bit-identical)", kInt,
         1},
        {"stream-checkpoint-s", "S",
         "early LLR checkpoints every S seconds, in the report", kNumber,
         util::kPositive},
        {"frontend", "Q", "front end to decode (default 0)", kInt, 0},
        {"utterance", "I", "test utterance, modulo the test set (default 0)",
         kInt, 0},
        {"v", "V", "DBA vote threshold, at most the front-end count "
         "(default 3)", kInt, 1},
        {"mode", "m1|m2|both", "DBA re-training mode (default both)", kChoice},
        {"points", "N", "DET points per tier; 0 or 1 = all (default 50)", kInt,
         0},
        {"trace", "t.json", "write Chrome trace-event JSON (ui.perfetto.dev)"},
        {"prom", "m.prom", "write Prometheus text metrics"},
        {"input", "report.json", "render the table from a saved run report"},
        {"out", "path", "freeze: bundle directory; profile: folded stacks"},
        {"hz", "N", "sampling rate ($PHONOLID_PROFILE_HZ, else 99)", kInt, 1,
         10000},
        {"max-bytes", "N", "gc: evict oldest entries beyond N bytes (0 = off)",
         kInt, 0},
        {"bundle", "dir", "the frozen model bundle to serve"},
        {"port", "N", "listen port on 127.0.0.1 (0 = kernel-assigned)", kInt, 0,
         65535},
        {"port-file", "f", "write the bound port to f"},
        {"max-batch", "N", "micro-batch size cap (default 32)", kInt, 1},
        {"batch-window-ms", "W", "co-arrival wait per batch (default 2)",
         kNumber, 0},
        {"queue-depth", "N", "queue bound in requests (default 256)", kInt, 1},
        {"queue-max-mb", "MB", "queue bound in MB of PCM (default 256)", kInt,
         1, 1 << 20},
        {"allow-swap", "B", "accept model swaps (default 1)", kInt, 0, 1},
        {"swap-root", "dir", "confine model swaps to bundles under dir"},
        {"admin-port", "N",
         "HTTP /metrics /healthz /statusz /flamez (0 = kernel-assigned, "
         "-1 = off, the default)",
         kInt, -1, 65535},
        {"admin-port-file", "f", "write the bound admin port to f"},
        {"slow-log", "N", "slowest requests kept for /statusz (default 8)",
         kInt, 0},
    };
    for (const obs::ReportDiffFlag& flag : obs::report_diff_flags()) {
      t.push_back({flag.name, flag.value, flag.help, kNumber, 0.0});
    }
    return t;
  }();
  return table;
}

constexpr const char* kTierNames[] = {"30s", "10s", "3s"};

core::ExperimentConfig config_from(const ParsedFlags& flags) {
  const auto scale = util::parse_scale(
      flags.text("scale", util::to_string(util::scale_from_env())));
  const auto seed = static_cast<std::uint64_t>(flags.integer(
      "seed", static_cast<std::int64_t>(util::master_seed())));
  auto cfg = core::ExperimentConfig::preset(scale, seed);
  cfg.report_path = flags.text("report");
  cfg.cache_dir = flags.text("cache-dir");
  cfg.ledger_path = flags.text("ledger");
  if (flags.has("chunk-ms")) {
    cfg.batch_chunk_samples = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(flags.integer("chunk-ms", 0)) *
               cfg.corpus.sample_rate / 1000.0));
  }
  return cfg;
}

/// --v, checked against the configured front ends before any work.
std::size_t min_votes(const ParsedFlags& flags,
                      const core::ExperimentConfig& cfg) {
  const auto subsystems = static_cast<std::int64_t>(cfg.frontends.size());
  return static_cast<std::size_t>(flags.integer_at_most(
      "v", std::min<std::int64_t>(3, subsystems), subsystems));
}

std::vector<const core::SubsystemScores*> pointers(
    const std::vector<core::SubsystemScores>& blocks) {
  std::vector<const core::SubsystemScores*> out;
  for (const auto& b : blocks) out.push_back(&b);
  return out;
}

core::EvalResult evaluate_baseline(const core::Experiment& exp) {
  return exp.evaluate(pointers(exp.baseline_scores()));
}

/// The paper's DBA recipe: re-train every front end's VSM on Tr_DBA(V)
/// with M1 and/or M2, and weight each re-trained block by its subsystem's
/// count in `selection` (Eq. 15).  `run` evaluates it and `freeze`
/// snapshots it, so a frozen bundle scores bit-identically to the run.
struct DbaFusion {
  std::vector<core::SubsystemScores> scores;  // M1 blocks, then M2 blocks
  std::vector<double> weights;
};

DbaFusion run_dba_recipe(const core::Experiment& exp,
                         const core::TrdbaSelection& selection, std::size_t v,
                         std::string_view mode,
                         std::vector<svm::VsmModel>* models = nullptr) {
  DbaFusion out;
  for (const auto& [name, dba_mode] : {std::pair{"m1", core::DbaMode::kM1},
                                        std::pair{"m2", core::DbaMode::kM2}}) {
    if (mode != name && mode != "both") continue;
    auto blocks = exp.run_dba(v, dba_mode, models);
    std::move(blocks.begin(), blocks.end(), std::back_inserter(out.scores));
    for (std::size_t c : selection.subsystem_fit_counts) {
      out.weights.push_back(static_cast<double>(c));
    }
  }
  return out;
}

/// Build the experiment, then run the baseline fusion and one M1 DBA round:
/// the pipeline `export` traces and `explain` explains without a ledger.
std::unique_ptr<core::Experiment> run_baseline_and_m1(
    const ParsedFlags& flags) {
  const auto cfg = config_from(flags);
  const std::size_t v = min_votes(flags, cfg);
  auto exp = core::Experiment::build(cfg);
  (void)evaluate_baseline(*exp);
  const auto m1 = exp->run_dba(v, core::DbaMode::kM1);
  (void)exp->evaluate(pointers(m1));
  return exp;
}

obs::ReportMeta report_meta(const char* command, std::string scale,
                            std::uint64_t seed) {
  return {.tool = "phonolid", .command = command, .scale = std::move(scale),
          .seed = seed, .threads = util::ThreadPool::global().num_threads()};
}

/// --ledger and --report for a command that built an Experiment: `results`
/// becomes the report's "results" section, followed by `streaming` unless
/// it is null.
void write_outputs(const core::Experiment& exp, const char* command,
                   obs::Json results, obs::Json streaming = obs::Json()) {
  const core::ExperimentConfig& cfg = exp.config();
  if (!cfg.ledger_path.empty()) exp.write_ledger(cfg.ledger_path);
  if (cfg.report_path.empty()) return;
  obs::Json extra = obs::Json::object();
  extra["results"] = std::move(results);
  if (!streaming.is_null()) extra["streaming"] = std::move(streaming);
  exp.write_report(cfg.report_path, command, std::move(extra));
}

obs::Json checkpoints_json(const std::vector<core::StreamingCheckpoint>& cps) {
  obs::Json out = obs::Json::array();
  for (const auto& cp : cps) {
    obs::Json entry = obs::Json::object();
    entry["audio_s"] = obs::Json(cp.audio_s);
    entry["frames"] = obs::Json(cp.frames);
    if (!cp.llr.empty()) {
      obs::Json llr = obs::Json::array();
      for (float v : cp.llr) llr.push_back(obs::Json(v));
      entry["llr"] = std::move(llr);
      entry["best_language"] = obs::Json(cp.best_language);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

/// The "streaming" report section's header; the caller adds the payload.
obs::Json streaming_json(const core::ExperimentConfig& cfg,
                         double checkpoint_s) {
  obs::Json out = obs::Json::object();
  out["version"] = obs::Json(1);
  out["chunk_samples"] = obs::Json(cfg.batch_chunk_samples);
  out["checkpoint_interval_s"] = obs::Json(checkpoint_s);
  return out;
}

obs::Json tier_metrics_json(const core::EvalResult& result) {
  obs::Json out = obs::Json::object();
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    obs::Json entry = obs::Json::object();
    entry["eer"] = obs::Json(result.tier[t].eer);
    entry["cavg"] = obs::Json(result.tier[t].cavg);
    out[kTierNames[t]] = std::move(entry);
  }
  return out;
}

/// --report for commands that don't hold a full Experiment (corpus, decode,
/// freeze); same schema as Experiment::write_report minus its sections.
void write_plain_report(const core::ExperimentConfig& cfg,
                        const char* command, obs::Json results) {
  if (cfg.report_path.empty()) return;
  obs::Json extra = obs::Json::object();
  extra["results"] = std::move(results);
  obs::write_report_file(
      cfg.report_path,
      obs::build_report(
          report_meta(command, util::to_string(cfg.scale), cfg.seed),
          std::move(extra)));
}

obs::Json load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    return obs::Json::parse(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("parsing '" + path + "': " + e.what());
  }
}

int cmd_corpus(const ParsedFlags& flags) {
  const auto cfg = config_from(flags);
  const auto corpus = corpus::LreCorpus::build(cfg.corpus);
  std::printf("phone inventory : %zu universal phones\n",
              corpus.inventory().size());
  std::printf("target languages: %zu (", corpus.num_target_languages());
  for (const auto& l : corpus.target_languages()) std::printf(" %s", l.name().c_str());
  std::printf(" )\n");
  std::printf("native languages: %zu\n", corpus.native_languages().size());
  std::printf("vsm train       : %zu utterances\n", corpus.vsm_train_info().size());
  std::printf("dev             : %zu utterances\n", corpus.dev_info().size());
  std::printf("test            : %zu utterances\n", corpus.test_info().size());
  obs::Json tiers_json = obs::Json::object();
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    const auto tier = static_cast<corpus::DurationTier>(t);
    const auto idx = corpus.test_indices(tier);
    double seconds = 0.0;
    for (std::size_t i : idx) {
      seconds += static_cast<double>(corpus.test()[i].samples.size()) /
                 cfg.corpus.sample_rate;
    }
    const double mean_s =
        idx.empty() ? 0.0 : seconds / static_cast<double>(idx.size());
    std::printf("  tier %-4s: %4zu utterances, mean %.2fs audio\n",
                corpus::to_string(tier), idx.size(), mean_s);
    obs::Json tier_entry = obs::Json::object();
    tier_entry["utterances"] = obs::Json(idx.size());
    tier_entry["mean_audio_s"] = obs::Json(mean_s);
    tiers_json[corpus::to_string(tier)] = std::move(tier_entry);
  }
  // Pairwise language distinctness.
  double min_dist = 1e9, max_dist = 0.0;
  const auto& langs = corpus.target_languages();
  for (std::size_t i = 0; i < langs.size(); ++i) {
    for (std::size_t j = i + 1; j < langs.size(); ++j) {
      const double d = corpus::LanguageSpec::bigram_distance(langs[i], langs[j]);
      min_dist = std::min(min_dist, d);
      max_dist = std::max(max_dist, d);
    }
  }
  std::printf("bigram distance : min %.3f  max %.3f (pairwise TV)\n", min_dist,
              max_dist);

  obs::Json results = obs::Json::object();
  results["phone_inventory"] = obs::Json(corpus.inventory().size());
  results["target_languages"] = obs::Json(corpus.num_target_languages());
  results["native_languages"] = obs::Json(corpus.native_languages().size());
  results["vsm_train_utterances"] = obs::Json(corpus.vsm_train_info().size());
  results["dev_utterances"] = obs::Json(corpus.dev_info().size());
  results["test_utterances"] = obs::Json(corpus.test_info().size());
  results["test_tiers"] = std::move(tiers_json);
  results["bigram_distance_min"] = obs::Json(min_dist);
  results["bigram_distance_max"] = obs::Json(max_dist);
  write_plain_report(cfg, "corpus", std::move(results));
  return 0;
}

int cmd_decode(const ParsedFlags& flags) {
  const auto cfg = config_from(flags);
  const auto q = static_cast<std::size_t>(flags.integer_at_most(
      "frontend", 0, static_cast<std::int64_t>(cfg.frontends.size()) - 1));
  const double checkpoint_s = flags.number("stream-checkpoint-s", 0.0);
  const auto corpus = corpus::LreCorpus::build(cfg.corpus);
  // Pull the trained front-end from the artifact store when possible —
  // decoding one utterance needs no TFLLR fit, so a warm decode skips all
  // training (a disabled store just computes).
  pipeline::ArtifactStore store(
      pipeline::ArtifactStore::resolve_root(cfg.cache_dir));
  const auto fe_key = core::frontend_stage_key(
      core::corpus_stage_key(cfg.corpus, cfg.scale, cfg.seed),
      cfg.frontends[q], cfg.seed);
  auto fe = store.get_or_compute<core::TrainedFrontEnd>(
      fe_key,
      [](std::istream& in) { return core::TrainedFrontEnd::deserialize(in); },
      [](std::ostream& out, const core::TrainedFrontEnd& v) {
        v.serialize(out);
      },
      [&] {
        return core::Subsystem::train_front_end(corpus, cfg.frontends[q],
                                                cfg.seed);
      });
  const auto sub =
      core::Subsystem::assemble(corpus, cfg.frontends[q], std::move(fe));
  sub->set_batch_chunk_samples(cfg.batch_chunk_samples);
  const auto utt_index =
      static_cast<std::size_t>(flags.integer("utterance", 0)) %
      corpus.test().size();
  const auto& utt = corpus.test()[utt_index];
  std::printf("front-end : %s\n", sub->name().c_str());
  std::printf("utterance : #%zu, language %d, tier %s, %.2fs audio\n",
              utt_index, utt.language, corpus::to_string(utt.tier),
              static_cast<double>(utt.samples.size()) / cfg.corpus.sample_rate);
  std::vector<core::StreamingCheckpoint> checkpoints;
  decoder::Lattice lattice = [&] {
    if (checkpoint_s <= 0.0) return sub->decode(utt);
    core::StreamingOptions opts;
    opts.chunk_samples = cfg.batch_chunk_samples;
    opts.checkpoint_interval_s = checkpoint_s;
    opts.apply_tfllr = false;  // no TFLLR fit in lattice-only decode
    auto res = sub->score_stream(utt.samples, opts);
    checkpoints = std::move(res.checkpoints);
    return std::move(res.lattice);
  }();
  for (const auto& cp : checkpoints) {
    std::printf("checkpoint: %.2fs audio, %zu frames resolved\n", cp.audio_s,
                cp.frames);
  }
  std::printf("lattice   : %zu frames, %zu edges\n", lattice.num_frames(),
              lattice.edges().size());
  std::printf("1-best    :");
  for (std::uint32_t p : lattice.best_path()) std::printf(" %u", p);
  std::printf("\nedges (start end phone posterior):\n");
  const std::size_t show = std::min<std::size_t>(lattice.edges().size(), 40);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& e = lattice.edges()[i];
    std::printf("  %4u %4u  p%02u  %.3f\n", e.start_node, e.end_node, e.phone,
                e.posterior);
  }
  if (show < lattice.edges().size()) {
    std::printf("  ... (%zu more)\n", lattice.edges().size() - show);
  }

  obs::Json results = obs::Json::object();
  results["frontend"] = obs::Json(sub->name());
  results["frontend_index"] = obs::Json(q);
  results["utterance_index"] = obs::Json(utt_index);
  results["utterance_language"] = obs::Json(utt.language);
  results["utterance_tier"] = obs::Json(corpus::to_string(utt.tier));
  results["lattice_frames"] = obs::Json(lattice.num_frames());
  results["lattice_edges"] = obs::Json(lattice.edges().size());
  results["best_path_length"] = obs::Json(lattice.best_path().size());
  if (checkpoint_s > 0.0) {
    obs::Json streaming = streaming_json(cfg, checkpoint_s);
    streaming["checkpoints"] = checkpoints_json(checkpoints);
    results["streaming"] = std::move(streaming);
  }
  write_plain_report(cfg, "decode", std::move(results));

  return 0;
}

int cmd_run(const ParsedFlags& flags) {
  const auto cfg = config_from(flags);
  const std::size_t v = min_votes(flags, cfg);
  const std::string mode = flags.text("mode", "both");
  const double checkpoint_s = flags.number("stream-checkpoint-s", 0.0);
  const auto exp = core::Experiment::build(cfg);
  const auto baseline = evaluate_baseline(*exp);

  const auto selection = exp->select(v);
  std::printf("Tr_DBA(V=%zu): %zu utterances, label error %.2f%%\n", v,
              selection.utt_index.size(),
              100.0 * core::selection_error_rate(selection, exp->test_labels()));
  const DbaFusion fused = run_dba_recipe(*exp, selection, v, mode);
  const auto dba = exp->evaluate(pointers(fused.scores), fused.weights);

  std::printf("\n%-8s %18s %18s\n", "tier", "baseline EER/Cavg",
              "DBA EER/Cavg");
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    std::printf("%-8s %8.2f / %-7.2f %8.2f / %-7.2f\n", kTierNames[t],
                100.0 * baseline.tier[t].eer, 100.0 * baseline.tier[t].cavg,
                100.0 * dba.tier[t].eer, 100.0 * dba.tier[t].cavg);
  }

  // Early-decision demonstration: re-stream the longest-tier test
  // utterances with per-checkpoint LLRs from the baseline VSMs.
  obs::Json streaming_section;
  if (checkpoint_s > 0.0) {
    const auto& corpus = exp->corpus();
    const auto tier30 =
        corpus.test_indices(static_cast<corpus::DurationTier>(0));
    const std::size_t n_utts = std::min<std::size_t>(2, tier30.size());
    const std::size_t k = exp->num_languages();
    std::printf("\nstreaming checkpoints (every %.1fs):\n", checkpoint_s);
    obs::Json utts_json = obs::Json::array();
    for (std::size_t u = 0; u < n_utts; ++u) {
      const std::size_t utt_index = tier30[u];
      const auto& utt = corpus.test()[utt_index];
      obs::Json utt_json = obs::Json::object();
      utt_json["utterance"] = obs::Json(utt_index);
      utt_json["language"] = obs::Json(utt.language);
      utt_json["audio_s"] =
          obs::Json(static_cast<double>(utt.samples.size()) /
                    cfg.corpus.sample_rate);
      obs::Json subs_json = obs::Json::array();
      for (std::size_t s = 0; s < exp->num_subsystems(); ++s) {
        const svm::VsmModel& vsm = exp->baseline_vsm(s);
        core::StreamingOptions opts;
        opts.chunk_samples = cfg.batch_chunk_samples;
        opts.checkpoint_interval_s = checkpoint_s;
        opts.scorer = [&vsm, k](const phonotactic::SparseVec& sv) {
          std::vector<float> out(k);
          vsm.score(sv, std::span<float>(out));
          return out;
        };
        const core::StreamingResult res =
            exp->subsystem(s).score_stream(utt.samples, opts);
        std::printf("  utt #%-4zu %-16s:", utt_index,
                    exp->subsystem(s).name().c_str());
        for (const auto& cp : res.checkpoints) {
          std::printf(" %.0fs->%s", cp.audio_s,
                      cp.best_language < k
                          ? corpus.target_languages()[cp.best_language]
                                .name()
                                .c_str()
                          : "?");
        }
        std::printf("  (true %s)\n",
                    corpus.target_languages()[static_cast<std::size_t>(
                                                  utt.language)]
                        .name()
                        .c_str());
        obs::Json sub_json = obs::Json::object();
        sub_json["subsystem"] = obs::Json(exp->subsystem(s).name());
        sub_json["checkpoints"] = checkpoints_json(res.checkpoints);
        subs_json.push_back(std::move(sub_json));
      }
      utt_json["subsystems"] = std::move(subs_json);
      utts_json.push_back(std::move(utt_json));
    }
    streaming_section = streaming_json(cfg, checkpoint_s);
    streaming_section["utterances"] = std::move(utts_json);
  }

  obs::Json results = obs::Json::object();
  results["baseline"] = tier_metrics_json(baseline);
  results["dba"] = tier_metrics_json(dba);
  results["mode"] = obs::Json(mode);
  results["min_votes"] = obs::Json(v);
  write_outputs(*exp, "run", std::move(results), std::move(streaming_section));
  return 0;
}

int cmd_det(const ParsedFlags& flags) {
  const auto points = static_cast<std::size_t>(flags.integer("points", 50));
  const auto exp = core::Experiment::build(config_from(flags));
  const auto result = evaluate_baseline(*exp);

  std::printf("tier,p_fa,p_miss,probit_fa,probit_miss\n");
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    for (const auto& p : eval::thin_det_curve(result.det[t], points)) {
      std::printf("%s,%.6f,%.6f,%.4f,%.4f\n", kTierNames[t], p.p_fa, p.p_miss,
                  util::probit(std::max(p.p_fa, 1e-6)),
                  util::probit(std::max(p.p_miss, 1e-6)));
    }
  }

  obs::Json results = obs::Json::object();
  results["baseline"] = tier_metrics_json(result);
  obs::Json det = obs::Json::object();
  for (std::size_t t = 0; t < corpus::kNumTiers; ++t) {
    det[kTierNames[t]] = obs::Json(result.det[t].size());
  }
  results["det_points"] = std::move(det);
  write_outputs(*exp, "det", std::move(results));
  return 0;
}

int cmd_votes(const ParsedFlags& flags) {
  const auto exp = core::Experiment::build(config_from(flags));
  const auto& votes = exp->votes();
  std::vector<std::size_t> hist(exp->num_subsystems() + 1, 0);
  for (std::size_t j = 0; j < votes.num_utts; ++j) {
    std::uint16_t best = 0;
    for (std::size_t k = 0; k < votes.num_classes; ++k) {
      best = std::max(best, votes.count(j, k));
    }
    ++hist[best];
  }
  std::printf("max-votes histogram over %zu test utterances:\n",
              votes.num_utts);
  for (std::size_t c = 0; c < hist.size(); ++c) {
    std::printf("  %zu: %zu\n", c, hist[c]);
  }
  std::printf("\nTr_DBA per threshold:\n");
  obs::Json thresholds = obs::Json::array();
  for (std::size_t v = exp->num_subsystems(); v >= 1; --v) {
    const auto sel = exp->select(v);
    const double label_error =
        core::selection_error_rate(sel, exp->test_labels());
    std::printf("  V=%zu: %5zu adopted, label error %.2f%%\n", v,
                sel.utt_index.size(), 100.0 * label_error);
    obs::Json entry = obs::Json::object();
    entry["min_votes"] = obs::Json(v);
    entry["adopted"] = obs::Json(sel.utt_index.size());
    entry["label_error"] = obs::Json(label_error);
    thresholds.push_back(std::move(entry));
  }

  obs::Json histogram = obs::Json::array();
  for (std::size_t c = 0; c < hist.size(); ++c) {
    histogram.push_back(obs::Json(hist[c]));
  }
  obs::Json results = obs::Json::object();
  results["max_votes_histogram"] = std::move(histogram);
  results["trdba_per_threshold"] = std::move(thresholds);
  write_outputs(*exp, "votes", std::move(results));
  return 0;
}

int cmd_export(const ParsedFlags& flags) {
  const std::string trace_path = flags.text("trace");
  const std::string prom_path = flags.text("prom");
  if (trace_path.empty() && prom_path.empty()) {
    throw util::UsageError("export needs --trace and/or --prom");
  }
  if (!trace_path.empty() && !obs::FlightRecorder::enabled()) {
    obs::FlightRecorder::enable();
    obs::FlightRecorder::set_thread_name("main");
  }
  // The full pipeline, so the exported timeline covers decode, VSM
  // training, DBA, and fusion.
  const auto exp = run_baseline_and_m1(flags);
  write_outputs(*exp, "export", obs::Json());
  if (!trace_path.empty()) {
    obs::write_chrome_trace(trace_path);
    std::printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  if (!prom_path.empty()) {
    obs::write_prometheus(prom_path);
    std::printf("wrote Prometheus metrics to %s\n", prom_path.c_str());
  }
  return 0;
}

/// A --ledger file, or nullopt after reporting why it cannot be read.
std::optional<obs::DecisionLedger> read_ledger(const std::string& path) {
  try {
    return obs::DecisionLedger::read_jsonl_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return std::nullopt;
  }
}

int cmd_explain(const ParsedFlags& flags) {
  if (flags.positionals.size() != 1) {
    throw util::UsageError(
        "explain needs exactly one utterance id: explain <utt-id> "
        "[--ledger l.jsonl]");
  }
  const std::string& text = flags.positionals[0];
  std::uint64_t id = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, id);
  if (ec != std::errc() || ptr != end || text.empty()) {
    throw util::UsageError("explain expects an utterance id, got '" + text +
                           "'");
  }

  // Without a ledger file, explain a fresh run's scores, votes, and
  // adoption.
  const std::string path = flags.text("ledger");
  const std::optional<obs::DecisionLedger> ledger =
      path.empty() ? run_baseline_and_m1(flags)->ledger() : read_ledger(path);
  if (!ledger) return 2;

  const obs::LedgerEntry* entry = ledger->find(id);
  if (entry == nullptr) {
    std::fprintf(stderr,
                 "error: utterance id %llu not in the ledger (%zu entries)\n",
                 static_cast<unsigned long long>(id), ledger->entries.size());
    return 2;
  }
  std::fputs(obs::format_explain(*ledger, *entry).c_str(), stdout);
  return 0;
}

int cmd_diag(const ParsedFlags& flags) {
  const std::string ledger_path = flags.text("ledger");
  if (ledger_path.empty()) {
    throw util::UsageError("diag needs --ledger <file.jsonl>");
  }
  const std::optional<obs::DecisionLedger> read = read_ledger(ledger_path);
  if (!read) return 2;
  const obs::DecisionLedger& ledger = *read;
  if (ledger.empty()) {
    std::fprintf(stderr, "error: ledger '%s' has no entries\n",
                 ledger_path.c_str());
    return 2;
  }
  const eval::DiagnosticsResult diag = eval::compute_diagnostics(ledger);
  std::fputs(eval::format_diagnostics(diag).c_str(), stdout);

  // Echo this process's resource usage (same numbers as the report's
  // "resource" section) so a diag run doubles as a quick cost check.
  const obs::ResourceUsage usage = obs::current_resource_usage();
  std::printf("\nresource: wall %.3f s", usage.wall_s);
  if (usage.valid) {
    std::printf(", user CPU %.3f s, system CPU %.3f s, peak RSS %.1f MiB, "
                "ctx switches %ju voluntary / %ju involuntary",
                usage.user_cpu_s, usage.system_cpu_s,
                static_cast<double>(usage.peak_rss_bytes) / (1024.0 * 1024.0),
                static_cast<std::uintmax_t>(usage.voluntary_ctx_switches),
                static_cast<std::uintmax_t>(usage.involuntary_ctx_switches));
  }
  std::printf("\n");

  if (const std::string report_path = flags.text("report");
      !report_path.empty()) {
    eval::publish_quality_gauges(diag);
    obs::Json extra = obs::Json::object();
    extra["quality"] = eval::diagnostics_json(diag);
    obs::write_report_file(
        report_path,
        obs::build_report(report_meta("diag", ledger.scale, ledger.seed),
                          std::move(extra)));
  }
  return 0;
}

/// The number at `key` of `node`, or 0 when either is missing.
double number_at(const obs::Json* node, const char* key) {
  const obs::Json* v = node == nullptr ? nullptr : node->find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

/// Per-stage energy/counter table from a schema-v1 report.  Shared by the
/// live `phonolid power` run and `power --input report.json`, so committed
/// BENCH_*.json baselines can be inspected the same way as a fresh run.
std::string format_power_table(const obs::Json& report) {
  std::ostringstream out;
  char line[256];

  const obs::Json* energy = report.find("energy");
  const obs::Json* hw = report.find("hw");
  const obs::Json* source =
      energy == nullptr ? nullptr : energy->find("source");
  const std::string source_text =
      source != nullptr && source->is_string() ? source->as_string() : "off";
  const double total_j = number_at(energy, "total_joules");

  out << "energy source : " << source_text;
  if (source_text == "software") {
    std::snprintf(line, sizeof(line), " (%.3g J/GFLOP)",
                  number_at(energy, "joules_per_gflop"));
    out << line;
  }
  out << '\n';
  std::snprintf(line, sizeof(line), "total joules  : %.6f\n", total_j);
  out << line;
  std::snprintf(line, sizeof(line), "total GFLOPs  : %.3f\n",
                number_at(energy, "total_gflops"));
  out << line;
  std::snprintf(line, sizeof(line), "GFLOP per J   : %.3f\n",
                number_at(energy, "gflops_per_watt"));
  out << line;
  const obs::Json* hw_avail = hw == nullptr ? nullptr : hw->find("available");
  if (hw_avail != nullptr && hw_avail->is_bool() && hw_avail->as_bool()) {
    std::snprintf(line, sizeof(line),
                  "hw counters   : IPC %.2f, LLC miss rate %.3f, branch miss "
                  "rate %.3f\n",
                  number_at(hw, "ipc"), number_at(hw, "llc_miss_rate"),
                  number_at(hw, "branch_miss_rate"));
    out << line;
  } else {
    const obs::Json* reason =
        hw == nullptr ? nullptr : hw->find("unavailable_reason");
    out << "hw counters   : unavailable"
        << (reason != nullptr && reason->is_string()
                ? " (" + reason->as_string() + ")"
                : std::string())
        << '\n';
  }

  // One row per span that carries energy or counters, heaviest first.
  struct Row {
    std::string path;
    double joules = 0.0;
    double cycles = 0.0;
    double instructions = 0.0;
    double llc_misses = 0.0;
  };
  std::vector<Row> rows;
  double attributed = 0.0;
  if (const obs::Json* spans = report.find("spans");
      spans != nullptr && spans->is_array()) {
    for (const obs::Json& s : spans->as_array()) {
      const obs::Json* path = s.find("path");
      const obs::Json* joules = s.find("joules");
      const obs::Json* span_hw = s.find("hw");
      if (path == nullptr || !path->is_string()) continue;
      if (joules == nullptr && span_hw == nullptr) continue;
      Row row;
      row.path = path->as_string();
      if (joules != nullptr && joules->is_number()) {
        row.joules = joules->as_double();
        attributed += row.joules;
      }
      row.cycles = number_at(span_hw, "cycles");
      row.instructions = number_at(span_hw, "instructions");
      row.llc_misses = number_at(span_hw, "llc_misses");
      rows.push_back(std::move(row));
    }
  }
  if (total_j > attributed) {
    rows.push_back({"(unattributed)", total_j - attributed, 0, 0, 0});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.joules > b.joules; });

  out << '\n';
  std::snprintf(line, sizeof(line), "%-64s %12s %6s %12s %12s %10s\n", "stage",
                "joules", "%", "cycles", "instr", "llc-miss");
  out << line;
  for (const Row& row : rows) {
    const double pct = total_j > 0.0 ? 100.0 * row.joules / total_j : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-64s %12.6f %5.1f%% %12.0f %12.0f %10.0f\n",
                  row.path.c_str(), row.joules, pct, row.cycles,
                  row.instructions, row.llc_misses);
    out << line;
  }
  const double sum = attributed + std::max(0.0, total_j - attributed);
  std::snprintf(line, sizeof(line), "%-64s %12.6f %5.1f%%\n", "(sum)", sum,
                total_j > 0.0 ? 100.0 * sum / total_j : 0.0);
  out << line;
  return out.str();
}


/// Top-functions / per-span table from a report's "profile" section (or a
/// live Profiler::profile_json() document).  Shared by `phonolid flame`,
/// `flame --input report.json`, and the `profile` wrapper's exit summary.
std::string format_flame_table(const obs::Json* profile) {
  std::ostringstream out;
  char line[512];
  if (profile == nullptr || !profile->is_object()) {
    out << "profile       : (no profile section in this report)\n";
    return out.str();
  }
  const obs::Json* available = profile->find("available");
  if (available == nullptr || !available->is_bool() ||
      !available->as_bool()) {
    const obs::Json* source = profile->find("source");
    const obs::Json* reason = profile->find("unavailable_reason");
    out << "profile       : unavailable";
    if (source != nullptr && source->is_string() &&
        source->as_string() == "off") {
      out << " (profiling was off; set PHONOLID_PROFILE=cpu or use "
             "`phonolid profile`)";
    } else if (reason != nullptr && reason->is_string()) {
      out << " (" << reason->as_string() << ")";
    }
    out << '\n';
    return out.str();
  }
  const double samples = number_at(profile, "samples");
  std::snprintf(line, sizeof(line), "profile       : cpu @ %.0f Hz\n",
                number_at(profile, "hz"));
  out << line;
  std::snprintf(line, sizeof(line), "samples       : %.0f (%.0f dropped)\n",
                samples, number_at(profile, "dropped"));
  out << line;
  std::snprintf(line, sizeof(line),
                "symbolized    : %.1f%% of frames, %.1f%% of samples "
                "attributed to a named function\n",
                100.0 * number_at(profile, "symbolized_share"),
                100.0 * number_at(profile, "attributed_share"));
  out << line;

  out << "\ntop functions by self time:\n";
  std::snprintf(line, sizeof(line), "%7s %7s %9s %9s  %s\n", "self%",
                "total%", "self", "total", "function");
  out << line;
  if (const obs::Json* functions = profile->find("functions");
      functions != nullptr && functions->is_array()) {
    for (const obs::Json& fn : functions->as_array()) {
      const obs::Json* name = fn.find("name");
      std::snprintf(line, sizeof(line), "%6.1f%% %6.1f%% %9.0f %9.0f  %s\n",
                    100.0 * number_at(&fn, "self_share"),
                    100.0 * number_at(&fn, "total_share"),
                    number_at(&fn, "self"), number_at(&fn, "total"),
                    name != nullptr && name->is_string()
                        ? name->as_string().c_str()
                        : "?");
      out << line;
    }
  }

  out << "\nsamples by span:\n";
  std::snprintf(line, sizeof(line), "%7s %9s  %s\n", "share%", "samples",
                "span");
  out << line;
  if (const obs::Json* spans = profile->find("spans");
      spans != nullptr && spans->is_array()) {
    for (const obs::Json& span : spans->as_array()) {
      const obs::Json* path = span.find("path");
      std::snprintf(line, sizeof(line), "%6.1f%% %9.0f  %s\n",
                    100.0 * number_at(&span, "share"),
                    number_at(&span, "samples"),
                    path != nullptr && path->is_string()
                        ? path->as_string().c_str()
                        : "?");
      out << line;
    }
  }
  return out.str();
}

/// power/flame: render `table` from --input, or from a live run that builds
/// the experiment and scores the baseline fusion, so VSM scoring and
/// calibration show up next to the build-time stages.  With `profile`, the
/// live run is sampled by the CPU profiler; an unavailable profiler still
/// runs the pipeline, and the table says why it is empty.
int report_table(const ParsedFlags& flags, const char* command,
                 std::string (*table)(const obs::Json& report), bool profile) {
  if (const std::string input = flags.text("input"); !input.empty()) {
    std::fputs(table(load_json_file(input)).c_str(), stdout);
    return 0;
  }
  if (profile && !obs::Profiler::enabled() && !obs::Profiler::start(0)) {
    std::fprintf(stderr,
                 "phonolid: CPU profiler unavailable (%s); running "
                 "unprofiled\n",
                 std::strerror(obs::Profiler::unavailable_errno()));
  }
  const auto cfg = config_from(flags);
  const auto exp = core::Experiment::build(cfg);
  (void)evaluate_baseline(*exp);
  if (profile) obs::Profiler::stop();
  const obs::Json report = obs::build_report(
      report_meta(command, util::to_string(cfg.scale), cfg.seed));
  std::fputs(table(report).c_str(), stdout);
  if (!cfg.report_path.empty()) {
    obs::write_report_file(cfg.report_path, report);
  }
  return 0;
}

int cmd_power(const ParsedFlags& flags) {
  return report_table(flags, "power", format_power_table, false);
}

int cmd_flame(const ParsedFlags& flags) {
  return report_table(
      flags, "flame",
      [](const obs::Json& report) {
        return format_flame_table(report.find("profile"));
      },
      true);
}

int cmd_freeze(const ParsedFlags& flags) {
  const std::string out_dir = flags.text("out");
  if (out_dir.empty()) {
    throw util::UsageError("freeze needs --out <bundle-dir>");
  }
  const auto cfg = config_from(flags);
  const std::size_t v = min_votes(flags, cfg);
  const std::string mode = flags.text("mode", "both");
  const auto exp = core::Experiment::build(cfg);
  const std::size_t num_subs = exp->num_subsystems();

  std::vector<svm::VsmModel> models;
  const DbaFusion fused =
      run_dba_recipe(*exp, exp->select(v), v, mode, &models);
  if (models.size() != fused.scores.size()) {
    std::fprintf(stderr,
                 "error: freeze captured %zu VSMs for %zu score blocks\n",
                 models.size(), fused.scores.size());
    return 1;
  }
  const backend::ScoreFusion fusion =
      exp->fit_fusion(pointers(fused.scores), fused.weights);

  std::vector<core::FrozenHead> heads;
  heads.reserve(models.size());
  for (std::size_t h = 0; h < models.size(); ++h) {
    heads.push_back(core::FrozenHead{static_cast<std::uint32_t>(h % num_subs),
                                     std::move(models[h])});
  }
  core::FrozenModel::write_bundle(out_dir, *exp, heads, fusion);
  std::printf("froze %zu subsystems, %zu heads (mode %s, V=%zu) -> %s\n",
              num_subs, heads.size(), mode.c_str(), v, out_dir.c_str());
  std::printf("bundle format v%u, %zu languages, serve with:\n",
              static_cast<unsigned>(core::kBundleFormatVersion),
              exp->num_languages());
  std::printf("  phonolid serve --bundle %s --port 0\n", out_dir.c_str());

  obs::Json results = obs::Json::object();
  results["bundle_dir"] = obs::Json(out_dir);
  results["bundle_format"] = obs::Json(core::kBundleFormatVersion);
  results["subsystems"] = obs::Json(num_subs);
  results["heads"] = obs::Json(heads.size());
  results["languages"] = obs::Json(exp->num_languages());
  results["mode"] = obs::Json(mode);
  results["min_votes"] = obs::Json(v);
  write_plain_report(cfg, "freeze", std::move(results));

  return 0;
}

// SIGTERM/SIGINT → graceful drain.  The handler only touches the
// async-signal-safe request_shutdown() (atomic store + pipe write).
std::atomic<serve::ScoreServer*> g_serve_instance{nullptr};

void serve_signal_handler(int) {
  if (auto* server = g_serve_instance.load()) server->request_shutdown();
}

int cmd_serve(const ParsedFlags& flags) {
  const std::string bundle_dir = flags.text("bundle");
  if (bundle_dir.empty()) {
    throw util::UsageError("serve needs --bundle <bundle-dir>");
  }
  serve::ServerConfig scfg;
  scfg.port = static_cast<int>(flags.integer("port", scfg.port));
  scfg.max_batch = static_cast<std::size_t>(
      flags.integer("max-batch", static_cast<std::int64_t>(scfg.max_batch)));
  scfg.batch_window_ms = flags.number("batch-window-ms", scfg.batch_window_ms);
  scfg.queue_depth = static_cast<std::size_t>(flags.integer(
      "queue-depth", static_cast<std::int64_t>(scfg.queue_depth)));
  const long queue_max_mb = static_cast<long>(flags.integer(
      "queue-max-mb", static_cast<std::int64_t>(scfg.queue_max_bytes >> 20)));
  scfg.queue_max_bytes = static_cast<std::size_t>(queue_max_mb) << 20;
  scfg.allow_swap = flags.integer("allow-swap", 1) != 0;
  scfg.swap_root = flags.text("swap-root");
  scfg.admin_port =
      static_cast<int>(flags.integer("admin-port", scfg.admin_port));
  scfg.slow_log = static_cast<std::size_t>(
      flags.integer("slow-log", static_cast<std::int64_t>(scfg.slow_log)));

  auto model = std::make_shared<const core::FrozenModel>(
      core::FrozenModel::load_bundle(bundle_dir));
  std::printf("serve: loaded bundle %s (scale %s, seed %llu, %zu languages, "
              "%zu subsystems, %zu heads)\n",
              bundle_dir.c_str(), model->scale().c_str(),
              static_cast<unsigned long long>(model->seed()),
              model->num_languages(), model->num_subsystems(),
              model->num_heads());

  serve::ScoreServer server(std::move(model), scfg);
  const int port = server.start();
  g_serve_instance.store(&server);
  struct sigaction sa = {};
  sa.sa_handler = serve_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::printf("serve: listening on 127.0.0.1:%d (protocol v%u, max batch "
              "%zu, window %.1f ms, queue %zu / %ld MB, swap %s)\n",
              port, static_cast<unsigned>(serve::kServeProtocolVersion),
              scfg.max_batch, scfg.batch_window_ms, scfg.queue_depth,
              queue_max_mb,
              !scfg.allow_swap          ? "disabled"
              : scfg.swap_root.empty()  ? "any path"
                                        : scfg.swap_root.c_str());
  if (server.admin_port() >= 0) {
    std::printf("serve: admin endpoint on http://127.0.0.1:%d "
                "(/metrics /healthz /statusz /flamez, admin http v%u)\n",
                server.admin_port(),
                static_cast<unsigned>(serve::kAdminHttpVersion));
  }
  std::fflush(stdout);
  for (const auto& [flag, value] : {std::pair{"port-file", port},
                                    std::pair{"admin-port-file",
                                              server.admin_port()}}) {
    const std::string path = flags.text(flag);
    if (path.empty()) continue;
    std::ofstream out(path);
    out << value << '\n';
    if (!out) {
      std::fprintf(stderr, "error: cannot write --%s %s\n", flag,
                   path.c_str());
      server.shutdown();
      g_serve_instance.store(nullptr);
      return 1;
    }
  }

  server.wait();  // blocks until SIGTERM/SIGINT, then drains
  g_serve_instance.store(nullptr);
  // A daemon normally dies by signal, so flush the PHONOLID_PROM /
  // PHONOLID_TRACE / PHONOLID_PROFILE_OUT artifacts here, right after the
  // drain — not only in main()'s at-exit hook (obs/exporters.h), which a
  // future non-graceful teardown path might never reach.
  obs::export_from_env();
  std::printf("serve: drained and stopped\n");
  return 0;
}

int cmd_version(const ParsedFlags&) {
  std::printf("phonolid version surface\n");
  std::printf("  report schema     : v%d\n", obs::kReportSchemaVersion);
  std::printf("  pipeline format   : v%u\n",
              static_cast<unsigned>(pipeline::kPipelineFormatVersion));
  std::printf("  decision ledger   : v%d\n", obs::kLedgerVersion);
  std::printf("  quality section   : v%d\n", eval::kQualityVersion);
  std::printf("  model bundle      : v%u\n",
              static_cast<unsigned>(core::kBundleFormatVersion));
  std::printf("  serve protocol    : v%u (min v%u)\n",
              static_cast<unsigned>(serve::kServeProtocolVersion),
              static_cast<unsigned>(serve::kMinServeProtocolVersion));
  std::printf("  serve admin http  : v%u\n",
              static_cast<unsigned>(serve::kAdminHttpVersion));
  std::printf("build flags\n");
#if defined(PHONOLID_BUILD_TYPE)
  std::printf("  build type        : %s\n", PHONOLID_BUILD_TYPE);
#endif
#if defined(PHONOLID_SANITIZE)
  std::printf("  sanitizer         : %s\n",
              PHONOLID_SANITIZE[0] != '\0' ? PHONOLID_SANITIZE : "none");
#endif
#if defined(__VERSION__)
  std::printf("  compiler          : %s\n", __VERSION__);
#endif
#if defined(NDEBUG)
  std::printf("  assertions        : off (NDEBUG)\n");
#else
  std::printf("  assertions        : on\n");
#endif
  std::printf("  profiler default  : %d Hz\n", obs::kDefaultProfileHz);
  return 0;
}

int cmd_pipeline(const ParsedFlags& flags) {
  const std::string verb =
      flags.positionals.empty() ? "status" : flags.positionals[0];
  const std::string root =
      pipeline::ArtifactStore::resolve_root(flags.text("cache-dir"));
  if (root.empty()) {
    std::fprintf(stderr,
                 "error: no cache directory (pass --cache-dir or set "
                 "$PHONOLID_CACHE)\n");
    return 2;
  }
  pipeline::ArtifactStore store(root);
  if (verb == "status") {
    const auto st = store.status();
    std::printf("cache dir : %s\n", store.root().c_str());
    std::printf("format    : v%u\n",
                static_cast<unsigned>(pipeline::kPipelineFormatVersion));
    std::printf("entries   : %zu\n", st.entries);
    std::printf("bytes     : %ju\n", static_cast<std::uintmax_t>(st.bytes));
    return 0;
  }
  if (verb == "gc") {
    const long max_bytes = static_cast<long>(flags.integer("max-bytes", 0));
    const auto r = store.gc(static_cast<std::uintmax_t>(max_bytes));
    std::printf("kept %zu entries, removed %zu (%ju bytes reclaimed",
                r.kept, r.removed,
                static_cast<std::uintmax_t>(r.reclaimed_bytes));
    if (max_bytes > 0) {
      std::printf(", %zu evicted for the %ld-byte budget", r.evicted,
                  max_bytes);
    }
    std::printf(")\n");
    return 0;
  }
  throw util::UsageError("unknown pipeline verb '" + verb + "' (status|gc)");
}

int cmd_report_diff(const ParsedFlags& flags) {
  if (flags.positionals.size() != 2) {
    throw util::UsageError(
        "report-diff needs exactly two report files: "
        "report-diff <baseline.json> <current.json>");
  }
  obs::ReportDiffOptions options;
  for (const obs::ReportDiffFlag& flag : obs::report_diff_flags()) {
    options.*flag.field = flags.number(flag.name, options.*flag.field);
  }
  const obs::Json baseline = load_json_file(flags.positionals[0]);
  const obs::Json current = load_json_file(flags.positionals[1]);
  const obs::ReportDiffResult result =
      obs::diff_reports(baseline, current, options);
  std::fputs(result.format().c_str(), stdout);
  return result.violated ? 1 : 0;
}

int cmd_profile(const ParsedFlags& flags);

struct Command {
  std::string_view name;
  std::string_view synopsis;  // positionals, for the usage text
  std::string_view summary;
  std::vector<std::string_view> flags;
  int (*run)(const ParsedFlags& flags);
  /// The flags come first and the positionals are another command line,
  /// run under this one.
  bool wraps = false;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = [] {
    std::vector<std::string_view> diff_flags;
    for (const obs::ReportDiffFlag& flag : obs::report_diff_flags()) {
      diff_flags.push_back(flag.name);
    }
    return std::vector<Command>{
        {"corpus", "", "corpus statistics",
         {"scale", "seed", "report", "cache-dir"}, cmd_corpus},
        {"decode", "", "decode one test utterance and dump its lattice",
         {"scale", "seed", "report", "frontend", "utterance", "cache-dir",
          "chunk-ms", "stream-checkpoint-s"},
         cmd_decode},
        {"run", "", "baseline vs DBA EER/Cavg per duration tier",
         {"scale", "seed", "report", "v", "mode", "cache-dir", "ledger",
          "chunk-ms", "stream-checkpoint-s"},
         cmd_run},
        {"det", "", "DET curve CSV for the baseline fusion",
         {"scale", "seed", "report", "points", "cache-dir", "ledger"},
         cmd_det},
        {"votes", "", "vote histogram and Tr_DBA sizes",
         {"scale", "seed", "report", "cache-dir", "ledger"}, cmd_votes},
        {"export", "", "trace a baseline + M1 run (needs --trace or --prom)",
         {"scale", "seed", "v", "trace", "prom", "cache-dir", "ledger"},
         cmd_export},
        {"explain", "<utt-id>", "every DBA decision for one utterance",
         {"scale", "seed", "v", "cache-dir", "ledger"}, cmd_explain},
        {"diag", "", "quality diagnostics from a --ledger",
         {"ledger", "report"}, cmd_diag},
        {"power", "", "per-stage energy and hardware-counter table",
         {"scale", "seed", "report", "cache-dir", "input"}, cmd_power},
        {"flame", "", "sampling-profiler top table",
         {"scale", "seed", "report", "cache-dir", "input"}, cmd_flame},
        {"profile", "<command> [flags]", "run a command under the profiler",
         {"hz", "out"}, cmd_profile, true},
        {"report-diff", "<baseline.json> <current.json>",
         "compare two run reports; exits 1 when a gate is violated",
         diff_flags, cmd_report_diff},
        {"freeze", "", "train and freeze a servable bundle (needs --out)",
         {"scale", "seed", "out", "v", "mode", "cache-dir", "report"},
         cmd_freeze},
        {"serve", "", "loopback scoring daemon (needs --bundle)",
         {"bundle", "port", "port-file", "max-batch", "batch-window-ms",
          "queue-depth", "queue-max-mb", "allow-swap", "swap-root",
          "admin-port", "admin-port-file", "slow-log"},
         cmd_serve},
        {"version", "", "schema/format versions and build flags", {},
         cmd_version},
        {"pipeline", "status|gc", "artifact-store size, or garbage collection",
         {"cache-dir", "max-bytes"}, cmd_pipeline},
    };
  }();
  return table;
}

void usage() {
  std::string text = "usage: phonolid <command> [flags]\n\ncommands:\n";
  for (const Command& command : commands()) {
    std::string left = "  " + std::string(command.name);
    if (!command.synopsis.empty()) left += " " + std::string(command.synopsis);
    text += util::help_row(left, command.summary);
    std::string accepted;
    for (const std::string_view flag : command.flags) {
      accepted += " --" + std::string(flag);
    }
    if (!accepted.empty()) text += util::help_row("", "flags:" + accepted);
  }
  text += "\nflags:\n" + util::format_flag_help(flag_table());
  text +=
      "\nenv: PHONOLID_TRACE=t.json PHONOLID_PROM=m.prom  record and export a\n"
      "     flight-recorder trace / Prometheus metrics from any command\n"
      "     PHONOLID_PROFILE=cpu PHONOLID_PROFILE_HZ=N  sample CPU stacks\n"
      "     PHONOLID_PROFILE_OUT=out.folded  write folded stacks at exit\n"
      "     PHONOLID_ENERGY=rapl|software|off  energy source (default: RAPL\n"
      "     when readable, else the software model)\n"
      "exit status: 0 ok, 1 failure or report-diff violation, 2 usage "
      "error\n";
  std::fputs(text.c_str(), stderr);
}

struct Invocation {
  const Command* command = nullptr;
  ParsedFlags flags;
};

/// Parse a command line (without argv[0]) against the two tables; any
/// mistake is a UsageError, raised before any work starts.
Invocation parse_invocation(std::span<const std::string> args) {
  Invocation inv;
  std::string name;
  if (!args.empty() && args[0].rfind('-', 0) != 0) {
    name = args[0];
    for (const Command& command : commands()) {
      if (command.name == name) inv.command = &command;
    }
    if (inv.command == nullptr) {
      throw util::UsageError("unknown command '" + name + "'");
    }
  }
  const bool wraps = inv.command != nullptr && inv.command->wraps;
  inv.flags = util::parse_flags(
      flag_table(),
      inv.command != nullptr ? std::span(inv.command->flags)
                             : std::span<const std::string_view>(),
      args.empty() ? args : args.subspan(1), "command '" + name + "'", wraps);
  if (wraps) {
    const Invocation inner = parse_invocation(inv.flags.positionals);
    if (inner.command == nullptr) {
      throw util::UsageError(name + " needs a command to run");
    }
    if (inner.command->wraps) {
      throw util::UsageError(name + " cannot wrap itself");
    }
  }
  return inv;
}

int usage_error(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  usage();
  return 2;
}

/// A usage error found while running exits 2; any other failure (e.g. an
/// unwritable --report path) exits 1.
int run_command(const Invocation& inv) {
  try {
    return inv.command->run(inv.flags);
  } catch (const util::UsageError& e) {
    return usage_error(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int cmd_profile(const ParsedFlags& flags) {
  const Invocation inner = parse_invocation(flags.positionals);
  if (!obs::Profiler::start(static_cast<int>(flags.integer("hz", 0)))) {
    std::fprintf(stderr,
                 "phonolid: CPU profiler unavailable (%s); running "
                 "unprofiled\n",
                 std::strerror(obs::Profiler::unavailable_errno()));
  }
  const int rc = run_command(inner);
  obs::Profiler::stop();
  const obs::Json profile = obs::Profiler::profile_json();
  std::printf("\n");
  std::fputs(format_flame_table(&profile).c_str(), stdout);
  if (const std::string out_path = flags.text("out"); !out_path.empty()) {
    try {
      obs::write_folded_stacks(out_path);
      std::fprintf(stderr,
                   "phonolid: wrote folded stacks to %s (render with "
                   "flamegraph.pl or load into speedscope.app)\n",
                   out_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "phonolid: folded-stack export failed: %s\n",
                   e.what());
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
    return cmd_version(ParsedFlags());
  }
  const std::vector<std::string> args(argv + 1, argv + argc);
  Invocation inv;
  try {
    inv = parse_invocation(args);
  } catch (const util::UsageError& e) {
    return usage_error(e.what());
  }
  if (inv.command == nullptr) {
    usage();
    return 1;
  }
  obs::enable_recorder_from_env();
  const int rc = run_command(inv);
  // Flush PHONOLID_TRACE / PHONOLID_PROM even on failure — a trace of a
  // failed run is exactly when you want one.
  obs::export_from_env();
  return rc;
}
