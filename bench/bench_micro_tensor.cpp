// Microbenchmarks for the tensor/NN substrate (google-benchmark).
//
// The GEMM and model benches take the compute-thread budget as their last
// argument, so one run sweeps 1..N threads and `scripts/bench.sh` can record
// the scaling curve in a single JSON file. Every case with a budget reports
// wall time (UseRealTime): with helper threads, main-thread CPU time would
// overstate throughput. The context block records the ISA the kernels were
// compiled for, the host's SIMD flags and its hardware thread count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/parallel.h"
#include "models/lstm_classifier.h"
#include "nn/lstm.h"
#include "nn/transformer.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace {

using namespace cppflare;
using tensor::Tensor;

void set_threads_from_arg(benchmark::State& state, int arg) {
  core::set_compute_threads(static_cast<std::size_t>(state.range(arg)));
}

const bool kContext = [] {
  const bench::HostInfo host = bench::host_info();
  benchmark::AddCustomContext("kernel_isa", host.kernel_isa);
  benchmark::AddCustomContext("host_simd_flags", host.simd_flags);
  benchmark::AddCustomContext("hardware_concurrency",
                              std::to_string(host.hardware_concurrency));
  benchmark::AddCustomContext("compute_budget",
                              "last benchmark argument (threads per case)");
  return true;
}();

using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                        std::int64_t, std::int64_t);

// One kernel call per iteration on operands sized for any of the three
// layouts; items are flops (2*m*k*n).
void run_gemm(benchmark::State& state, GemmFn gemm, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  const std::int64_t rows = std::max(m, k);
  std::vector<float> a(m * k, 0.5f), b(rows * n, 0.25f), c(rows * n, 0.0f);
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

// 512 x 128 x N, budget last.
template <GemmFn kGemm>
void BM_Gemm(benchmark::State& state) {
  set_threads_from_arg(state, 1);
  run_gemm(state, kGemm, 512, 128, state.range(0));
}

// The models' real shapes, m/k/n/budget: BERT-mini's linear layers at
// batch 48 x seq 32 (hidden 50, ffn 200), one attention head's product
// (seq 32, head dim 25) and one LSTM gate block (batch 16, hidden 128).
template <GemmFn kGemm>
void BM_GemmShape(benchmark::State& state) {
  set_threads_from_arg(state, 3);
  run_gemm(state, kGemm, state.range(0), state.range(1), state.range(2));
}

void gemm_args(benchmark::internal::Benchmark* b) {
  b->Args({128, 1})->Args({512, 1})->Args({512, 2})->Args({512, 4})->UseRealTime();
}

void gemm_shape_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t budget : {1, 4}) {
    b->Args({1536, 50, 50, budget})
        ->Args({1536, 50, 200, budget})
        ->Args({1536, 200, 50, budget})
        ->Args({32, 25, 32, budget})
        ->Args({16, 128, 512, budget});
  }
  b->UseRealTime();
}

BENCHMARK_TEMPLATE(BM_Gemm, tensor::gemm_nn)->Name("BM_GemmNN")->Apply(gemm_args);
BENCHMARK_TEMPLATE(BM_GemmShape, tensor::gemm_nn)->Name("BM_GemmNN")->Apply(gemm_shape_args);
BENCHMARK_TEMPLATE(BM_Gemm, tensor::gemm_nt)->Name("BM_GemmNT")->Apply(gemm_args);
BENCHMARK_TEMPLATE(BM_GemmShape, tensor::gemm_nt)->Name("BM_GemmNT")->Apply(gemm_shape_args);
BENCHMARK_TEMPLATE(BM_Gemm, tensor::gemm_tn)->Name("BM_GemmTN")->Apply(gemm_args);
BENCHMARK_TEMPLATE(BM_GemmShape, tensor::gemm_tn)->Name("BM_GemmTN")->Apply(gemm_shape_args);

void BM_SoftmaxLastdim(benchmark::State& state) {
  core::Rng rng(1);
  Tensor x = Tensor::randn({96, 32, 32}, rng);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = tensor::softmax_lastdim(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxLastdim);

void BM_LayerNorm(benchmark::State& state) {
  core::Rng rng(2);
  Tensor x = Tensor::randn({512, 128}, rng);
  Tensor gamma = Tensor::full({128}, 1.0f);
  Tensor beta = Tensor::zeros({128});
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = tensor::layer_norm(x, gamma, beta);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LayerNorm);

void BM_AttentionForward(benchmark::State& state) {
  set_threads_from_arg(state, 0);
  core::Rng rng(3);
  nn::MultiHeadSelfAttention attn(128, 6, 22, 0.0f, rng);
  attn.set_training(false);
  Tensor x = Tensor::randn({8, 32, 128}, rng);
  core::Rng fw(4);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = attn.forward(x, Tensor{}, fw);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AttentionForward)->Arg(1)->Arg(4)->UseRealTime();

void BM_LstmForward(benchmark::State& state) {
  set_threads_from_arg(state, 0);
  core::Rng rng(5);
  nn::Lstm lstm(128, 128, 3, 0.0f, rng);
  lstm.set_training(false);
  Tensor x = Tensor::randn({8, 32, 128}, rng);
  core::Rng fw(6);
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = lstm.forward(x, fw);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LstmForward)->Arg(1)->Arg(4)->UseRealTime();

void BM_EmbeddingLookup(benchmark::State& state) {
  core::Rng rng(7);
  Tensor w = Tensor::randn({1000, 128}, rng);
  std::vector<std::int64_t> ids(512);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = (i * 37) % 1000;
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor y = tensor::embedding(w, ids);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_EmbeddingLookup);

void BM_CrossEntropy(benchmark::State& state) {
  core::Rng rng(8);
  Tensor logits = Tensor::randn({512, 1000}, rng);
  std::vector<std::int64_t> targets(512);
  for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = (i * 13) % 1000;
  tensor::NoGradGuard guard;
  for (auto _ : state) {
    Tensor loss = tensor::cross_entropy(logits, targets);
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_CrossEntropy);

void BM_BertMiniTrainStep(benchmark::State& state) {
  set_threads_from_arg(state, 0);
  core::Rng rng(9);
  models::ModelConfig config = models::ModelConfig::bert_mini(400, 32);
  auto model = models::make_classifier(config, rng);
  data::Batch batch;
  batch.batch_size = 8;
  batch.seq_len = 32;
  core::Rng ids_rng(10);
  for (int i = 0; i < 8; ++i) {
    for (int t = 0; t < 32; ++t) batch.ids.push_back(ids_rng.uniform_int(5, 399));
    batch.lengths.push_back(32);
    batch.labels.push_back(i % 2);
  }
  core::Rng fw(11);
  for (auto _ : state) {
    tensor::Tensor loss =
        tensor::cross_entropy(model->class_logits(batch, fw), batch.labels);
    model->zero_grad();
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_BertMiniTrainStep)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace
