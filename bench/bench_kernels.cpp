// Microbenchmarks for the src/la kernel library at acoustic-model
// representative shapes: MLP forward/backward GEMMs (batch x features
// against hidden/state layers) and the batched diagonal-Gaussian scorer
// that dominates GMM-HMM decoding.
//
// Per-kernel numbers are single-thread: run with PHONOLID_THREADS=1 (as
// scripts/tier1.sh does).  Above ~128 Kflop (kParallelFlopThreshold in
// src/la/kernels.cpp) a wider pool splits a call across workers, and
// google-benchmark then reports multi-thread wall time next to the main
// thread's CPU time alone.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "la/batched_gaussian.h"
#include "la/kernels.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace {

using namespace phonolid;

util::Matrix random_matrix(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  util::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

// MLP forward: batch x in against a (out x in) weight matrix, fused
// bias+sigmoid epilogue (gemm_nt).
void BM_GemmNtBiasSigmoid(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  const util::Matrix x = random_matrix(batch, in, 1);
  const util::Matrix w = random_matrix(out, in, 2);
  const std::vector<float> bias(out, 0.1f);
  util::Matrix c;
  for (auto _ : state) {
    la::gemm_nt(x, w, c, bias, la::Epilogue::kBiasSigmoid);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(batch * in * out) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

// Weight gradient: (1/batch) delta^T activations (gemm_tn); with a few
// output columns and thousands of rows it is the GMM EM statistics
// product gamma^T frames.
void BM_GemmTn(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto in = static_cast<std::size_t>(state.range(2));
  const util::Matrix delta = random_matrix(batch, out, 3);
  const util::Matrix acts = random_matrix(batch, in, 4);
  util::Matrix grad;
  for (auto _ : state) {
    la::gemm_tn(delta, acts, grad, 1.0f / 128.0f);
    benchmark::DoNotOptimize(grad.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(batch * in * out) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

// Backprop: delta (batch x out) times the (out x in) weights (gemm).
void BM_Gemm(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto in = static_cast<std::size_t>(state.range(2));
  const util::Matrix delta = random_matrix(batch, out, 5);
  const util::Matrix w = random_matrix(out, in, 6);
  util::Matrix next;
  for (auto _ : state) {
    la::gemm(delta, w, next);
    benchmark::DoNotOptimize(next.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(batch * in * out) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

// Batched diagonal-Gaussian log-densities: T frames x (states * mixture
// components), the GMM-HMM decoding hot path (one gemm_nt on [X | X^2]).
void BM_BatchedLogGaussian(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto comps = static_cast<std::size_t>(state.range(2));
  util::Rng rng(6);
  la::BatchedGaussians::Builder builder(dim, comps);
  std::vector<float> mean(dim), var(dim);
  for (std::size_t c = 0; c < comps; ++c) {
    for (std::size_t d = 0; d < dim; ++d) {
      mean[d] = static_cast<float>(rng.uniform(-1.0, 1.0));
      var[d] = static_cast<float>(rng.uniform(0.5, 1.5));
    }
    builder.add(mean, var);
  }
  const la::BatchedGaussians bg = builder.build();
  const util::Matrix x = random_matrix(frames, dim, 7);
  util::Matrix scores;
  for (auto _ : state) {
    bg.score(x, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      bg.flops_per_frame() * static_cast<double>(frames) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

}  // namespace

// Pipeline shapes (core/frontend_spec.cpp): NN front ends train on
// batches of 128 frames of 39 x 5 = 195 stacked inputs.  Quick: 32 hidden
// units and 48-66 states (the DNN has two hidden layers and 51 states).
// Default: 48 hidden units and 66-90 states.  GMM-HMMs have 2 (quick) or
// 4 (default) components per state over 39-dim frames: 102-144 (quick)
// and 288-396 (default) Gaussians.
BENCHMARK(BM_GemmNtBiasSigmoid)
    ->Args({128, 195, 32})
    ->Args({128, 32, 66})
    ->Args({128, 195, 48})
    ->Args({128, 48, 90});
BENCHMARK(BM_GemmTn)
    ->Args({128, 32, 195})
    ->Args({128, 66, 32})
    ->Args({128, 32, 32})
    ->Args({128, 51, 32})
    ->Args({128, 48, 195})
    ->Args({128, 90, 48})
    ->Args({2048, 2, 39})
    ->Args({2048, 4, 39});
BENCHMARK(BM_Gemm)
    ->Args({128, 66, 32})
    ->Args({128, 51, 32})
    ->Args({128, 32, 32})
    ->Args({128, 90, 48});
BENCHMARK(BM_BatchedLogGaussian)
    ->Args({300, 39, 102})
    ->Args({300, 39, 144})
    ->Args({300, 39, 396});

BENCHMARK_MAIN();
