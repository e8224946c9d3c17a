// GEMM kernel exactness. gemm_nn and gemm_tn must be memcmp-equal to the
// cache-blocked loop nests they replaced (kept below verbatim as the
// reference), and gemm_nt to C + gemm_nn(A, B^T, 0), over a shape table —
// the models' real shapes plus every m, k, n in 1..17 — from a nonzero C at
// compute budgets 1 and 4.
#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "test_util.h"

namespace cppflare::tensor {
namespace {

using cppflare::testing::expect_bitwise_equal;

// ---- reference: the previous loop nests --------------------------------------
// Verbatim bodies of the former gemm_nn / gemm_tn, run over the whole output
// range in one panel (their per-element order never depended on the panel
// split). Per element: NN starts from C and runs k ascending; TN starts
// from C and runs i ascending.

constexpr std::int64_t kKc = 128;
constexpr std::int64_t kMc = 128;

void seed_gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n) {
  const std::int64_t i0 = 0, i1 = m;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKc) {
    const std::int64_t k1 = std::min(k, k0 + kKc);
    for (std::int64_t i = i0; i < i1; ++i) {
      float* crow = c + i * n;
      const float* arow = a + i * k;
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float aik = arow[kk];
        const float* brow = b + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

void seed_gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n) {
  const std::int64_t kk0 = 0, kk1 = k;
  for (std::int64_t m0 = 0; m0 < m; m0 += kMc) {
    const std::int64_t m1 = std::min(m, m0 + kMc);
    for (std::int64_t i = m0; i < m1; ++i) {
      const float* arow = a + i * k;
      const float* brow = b + i * n;
      for (std::int64_t kk = kk0; kk < kk1; ++kk) {
        const float aik = arow[kk];
        float* crow = c + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

// ---- shape table -------------------------------------------------------------

struct Shape {
  std::int64_t m, k, n;
};

std::vector<Shape> shape_table() {
  std::vector<Shape> shapes = {
      {1536, 50, 50}, {1536, 50, 200}, {1536, 200, 50},  // BERT-mini linears
      {32, 25, 32},                                      // attention
      {16, 128, 512},                                    // an LSTM gate
  };
  for (std::int64_t m = 1; m <= 17; ++m) {
    for (std::int64_t k = 1; k <= 17; ++k) {
      for (std::int64_t n = 1; n <= 17; ++n) shapes.push_back({m, k, n});
    }
  }
  return shapes;
}

std::vector<float> randn(std::int64_t count, core::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// A nonzero initial C, with a signed zero so sign handling is pinned too.
std::vector<float> initial_c(std::int64_t count, core::Rng& rng) {
  std::vector<float> c = randn(count, rng);
  c[0] = -0.0f;
  return c;
}

std::string label(const char* kernel, const Shape& s, std::size_t budget) {
  return std::string(kernel) + " " + std::to_string(s.m) + "x" +
         std::to_string(s.k) + "x" + std::to_string(s.n) + " at budget " +
         std::to_string(budget);
}

// Runs `check` over the shape table at budgets 1 and 4, stopping at the
// first failing shape so a broken kernel reports one case, not thousands.
template <typename Check>
void for_each_case(Check&& check) {
  const std::vector<Shape> shapes = shape_table();
  for (const std::size_t budget : {std::size_t{1}, std::size_t{4}}) {
    core::set_compute_threads(budget);
    for (const Shape& s : shapes) {
      check(s, budget);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(GemmExact, NnMatchesSeedLoopNest) {
  for_each_case([](const Shape& s, std::size_t budget) {
    core::Rng rng(static_cast<std::uint64_t>(s.m * 10007 + s.k * 101 + s.n));
    const std::vector<float> a = randn(s.m * s.k, rng);
    const std::vector<float> b = randn(s.k * s.n, rng);
    std::vector<float> c = initial_c(s.m * s.n, rng);
    std::vector<float> want = c;
    gemm_nn(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    seed_gemm_nn(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    expect_bitwise_equal(c, want, label("gemm_nn", s, budget));
  });
}

TEST(GemmExact, TnMatchesSeedLoopNest) {
  for_each_case([](const Shape& s, std::size_t budget) {
    core::Rng rng(static_cast<std::uint64_t>(s.m * 3 + s.k * 5 + s.n * 17));
    const std::vector<float> a = randn(s.m * s.k, rng);
    const std::vector<float> b = randn(s.m * s.n, rng);
    std::vector<float> c = initial_c(s.k * s.n, rng);
    std::vector<float> want = c;
    gemm_tn(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    seed_gemm_tn(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    expect_bitwise_equal(c, want, label("gemm_tn", s, budget));
  });
}

TEST(GemmExact, NtIsCPlusNnOnTransposedB) {
  for_each_case([](const Shape& s, std::size_t budget) {
    core::Rng rng(static_cast<std::uint64_t>(s.m * 7 + s.k * 11 + s.n * 13));
    const std::vector<float> a = randn(s.m * s.k, rng);
    const std::vector<float> b = randn(s.n * s.k, rng);
    std::vector<float> c = initial_c(s.m * s.n, rng);
    std::vector<float> bt(b.size());
    for (std::int64_t j = 0; j < s.n; ++j) {
      for (std::int64_t p = 0; p < s.k; ++p) bt[p * s.n + j] = b[j * s.k + p];
    }
    std::vector<float> want(c.size(), 0.0f);
    gemm_nn(a.data(), bt.data(), want.data(), s.m, s.k, s.n);
    for (std::size_t i = 0; i < want.size(); ++i) want[i] = c[i] + want[i];
    gemm_nt(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    expect_bitwise_equal(c, want, label("gemm_nt", s, budget));
  });
}

TEST(GemmAccumulate, AddsToExistingValues) {
  std::vector<float> a = {1, 0, 0, 1};  // 2x2 identity
  std::vector<float> b = {5, 6, 7, 8};
  std::vector<float> c = {100, 100, 100, 100};
  gemm_nn(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 105);
  EXPECT_FLOAT_EQ(c[1], 106);
  EXPECT_FLOAT_EQ(c[2], 107);
  EXPECT_FLOAT_EQ(c[3], 108);
}

}  // namespace
}  // namespace cppflare::tensor
