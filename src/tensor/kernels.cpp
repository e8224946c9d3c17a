#include "tensor/kernels.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/trace.h"
#include "tensor/backend.h"

namespace cppflare::tensor {

namespace {

// Eight floats (and eight lane indices for shuffles). The release build
// (-march=x86-64-v3) keeps one in a ymm register and contracts
// `acc += a * b` into vfmadd231ps; the -O1 sanitizer builds compile the same
// source to SSE halves. No intrinsics, so no ISA dispatch (see kernels.h).
typedef float v8f __attribute__((vector_size(32)));
typedef int v8i __attribute__((vector_size(32)));

constexpr std::int64_t kMr = 6;   // C rows per tile
constexpr std::int64_t kNr = 16;  // C columns per tile: two v8f
constexpr std::size_t kVecBytes = sizeof(v8f);

// The three GEMMs as one shape: C[rows, n] (+)= A(rows, depth) * B(depth, n)
// with A(r, p) = a[r * a_row + p * a_red]. The kernel reads the B block of
// the kNr columns starting at j from b + j * b_col, rows ldb apart: (1, n)
// for B in place, (depth, kNr) for gemm_nt's packed panels. `b_tail` holds
// the last n % kNr columns as a zero-padded depth x kNr panel.
struct Operands {
  const float* a;
  std::int64_t a_row, a_red;
  const float* b;
  std::int64_t b_col, ldb;
  const float* b_tail;
  float* c;
  std::int64_t rows, depth, n;
};

// The micro-kernel: an MR x 16 tile of C held in 2*MR accumulators while the
// reduction is walked once, one A broadcast per row and two B loads per step.
//   kFromC (NN, TN): acc = C;  acc += A(r, p) * B[p, :] for p ascending;  C = acc
//   else   (NT):     acc = 0;  the same loop;                              C += acc
template <int MR, bool kFromC>
void micro_tile(const float* a, std::int64_t a_row, std::int64_t a_red,
                const float* b, std::int64_t ldb, std::int64_t depth, float* c,
                std::int64_t ldc) {
  v8f acc[MR][2];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    if constexpr (kFromC) {
      std::memcpy(&acc[r][0], c + r * ldc, kVecBytes);
      std::memcpy(&acc[r][1], c + r * ldc + 8, kVecBytes);
    } else {
      acc[r][0] = v8f{};
      acc[r][1] = v8f{};
    }
  }
  for (std::int64_t p = 0; p < depth; ++p) {
    v8f b0, b1;
    std::memcpy(&b0, b + p * ldb, kVecBytes);
    std::memcpy(&b1, b + p * ldb + 8, kVecBytes);
    const float* ap = a + p * a_red;
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const float x = ap[r * a_row];
      const v8f av = {x, x, x, x, x, x, x, x};
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    if constexpr (!kFromC) {
      v8f c0, c1;
      std::memcpy(&c0, c + r * ldc, kVecBytes);
      std::memcpy(&c1, c + r * ldc + 8, kVecBytes);
      acc[r][0] = c0 + acc[r][0];
      acc[r][1] = c1 + acc[r][1];
    }
    std::memcpy(c + r * ldc, &acc[r][0], kVecBytes);
    std::memcpy(c + r * ldc + 8, &acc[r][1], kVecBytes);
  }
}

// dst[8 x 8] = src[8 x 8]^T, row strides lds / ldd: three rounds of
// two-input shuffles (unpack, 64-bit shuffle, 128-bit lane swap).
void transpose8x8(const float* src, std::int64_t lds, float* dst,
                  std::int64_t ldd) {
  v8f r[8], t[8];
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) std::memcpy(&r[i], src + i * lds, kVecBytes);
#pragma GCC unroll 4
  for (int i = 0; i < 8; i += 2) {
    t[i] = __builtin_shuffle(r[i], r[i + 1], v8i{0, 8, 1, 9, 4, 12, 5, 13});
    t[i + 1] = __builtin_shuffle(r[i], r[i + 1], v8i{2, 10, 3, 11, 6, 14, 7, 15});
  }
#pragma GCC unroll 2
  for (int i = 0; i < 8; i += 4) {
    for (int h = 0; h < 2; ++h) {
      r[i + 2 * h] =
          __builtin_shuffle(t[i + h], t[i + h + 2], v8i{0, 1, 8, 9, 4, 5, 12, 13});
      r[i + 2 * h + 1] = __builtin_shuffle(t[i + h], t[i + h + 2],
                                           v8i{2, 3, 10, 11, 6, 7, 14, 15});
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    t[i] = __builtin_shuffle(r[i], r[i + 4], v8i{0, 1, 2, 3, 8, 9, 10, 11});
    t[i + 4] = __builtin_shuffle(r[i], r[i + 4], v8i{4, 5, 6, 7, 12, 13, 14, 15});
  }
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) std::memcpy(dst + i * ldd, &t[i], kVecBytes);
}

// B^T for gemm_nt in kNr-column panels: panel q holds B rows
// [q*kNr, q*kNr + kNr) transposed into a k x kNr row-major block, and the
// last panel is zero-padded. 8 x 8 blocks go through transpose8x8 (a block
// never straddles two panels); the edges are copied one element at a time.
std::unique_ptr<float[]> pack_bt_panels(const float* b, std::int64_t n,
                                        std::int64_t k) {
  const std::int64_t size = (n + kNr - 1) / kNr * kNr * k;
  auto out = std::make_unique_for_overwrite<float[]>(static_cast<std::size_t>(size));
  std::fill(out.get() + (n - n % kNr) * k, out.get() + size, 0.0f);
  const auto at = [&out, k](std::int64_t j, std::int64_t p) -> float& {
    return out[((j / kNr) * k + p) * kNr + j % kNr];
  };
  std::int64_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    std::int64_t p0 = 0;
    for (; p0 + 8 <= k; p0 += 8) transpose8x8(b + j0 * k + p0, k, &at(j0, p0), kNr);
    for (; p0 < k; ++p0) {
      for (std::int64_t j = j0; j < j0 + 8; ++j) at(j, p0) = b[j * k + p0];
    }
  }
  for (; j0 < n; ++j0) {
    for (std::int64_t p = 0; p < k; ++p) at(j0, p) = b[j0 * k + p];
  }
  return out;
}

template <bool kFromC>
void tile(std::int64_t mr, const float* a, std::int64_t a_row,
          std::int64_t a_red, const float* b, std::int64_t ldb,
          std::int64_t depth, float* c, std::int64_t ldc) {
  switch (mr) {
    case 6: return micro_tile<6, kFromC>(a, a_row, a_red, b, ldb, depth, c, ldc);
    case 5: return micro_tile<5, kFromC>(a, a_row, a_red, b, ldb, depth, c, ldc);
    case 4: return micro_tile<4, kFromC>(a, a_row, a_red, b, ldb, depth, c, ldc);
    case 3: return micro_tile<3, kFromC>(a, a_row, a_red, b, ldb, depth, c, ldc);
    case 2: return micro_tile<2, kFromC>(a, a_row, a_red, b, ldb, depth, c, ldc);
    default: return micro_tile<1, kFromC>(a, a_row, a_red, b, ldb, depth, c, ldc);
  }
}

// C rows [r0, r1), every column. A column tail narrower than kNr runs the
// same kernel on the zero-padded B panel and a C tile staged through a
// zero-padded stack buffer, so every element sees the same instructions.
template <bool kFromC>
void run_rows(const Operands& g, std::int64_t r0, std::int64_t r1) {
  for (std::int64_t j = 0; j < g.n; j += kNr) {
    const std::int64_t width = std::min(kNr, g.n - j);
    for (std::int64_t i = r0; i < r1; i += kMr) {
      const std::int64_t mr = std::min(kMr, r1 - i);
      const float* a = g.a + i * g.a_row;
      float* c = g.c + i * g.n + j;
      if (width == kNr) {
        tile<kFromC>(mr, a, g.a_row, g.a_red, g.b + j * g.b_col, g.ldb, g.depth,
                     c, g.n);
        continue;
      }
      float staged[kMr * kNr] = {};
      for (std::int64_t r = 0; r < mr; ++r) {
        std::copy_n(c + r * g.n, width, staged + r * kNr);
      }
      tile<kFromC>(mr, a, g.a_row, g.a_red, g.b_tail, kNr, g.depth, staged, kNr);
      for (std::int64_t r = 0; r < mr; ++r) {
        std::copy_n(staged + r * kNr, width, c + r * g.n);
      }
    }
  }
}

// Parallel items are row tiles, so a chunk never splits one; the
// decomposition depends on the shape only. An in-place B's tail panel is
// packed before any chunk runs and then shared read-only.
template <bool kFromC>
void run(Operands g) {
  if (g.rows <= 0 || g.n <= 0) return;
  const std::int64_t n_full = g.n - g.n % kNr;
  std::vector<float> tail;
  if (n_full != g.n && g.b_tail == nullptr) {
    tail.assign(static_cast<std::size_t>(g.depth * kNr), 0.0f);
    for (std::int64_t p = 0; p < g.depth; ++p) {
      std::copy(g.b + p * g.ldb + n_full, g.b + p * g.ldb + g.n,
                tail.data() + p * kNr);
    }
    g.b_tail = tail.data();
  }
  const std::int64_t tiles = (g.rows + kMr - 1) / kMr;
  backend::parallel_rows(tiles, kMr * 2 * g.depth * g.n,
                         [&g](std::int64_t t0, std::int64_t t1) {
                           run_rows<kFromC>(g, t0 * kMr,
                                            std::min(g.rows, t1 * kMr));
                         });
}

}  // namespace

void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n) {
  CF_TRACE_HISTOGRAM("tensor.gemm_nn_ns");
  run<true>({a, k, 1, b, 1, n, nullptr, c, m, k, n});
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n) {
  CF_TRACE_HISTOGRAM("tensor.gemm_nt_ns");
  // Pack B^T once, then run the NN shape on its panels from a zeroed tile.
  const std::unique_ptr<float[]> bt = pack_bt_panels(b, n, k);
  run<false>({a, k, 1, bt.get(), k, kNr, bt.get() + (n - n % kNr) * k, c, m,
              k, n});
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n) {
  CF_TRACE_HISTOGRAM("tensor.gemm_tn_ns");
  // C rows are indexed by A's columns; the reduction runs over A's rows.
  run<true>({a, 1, k, b, 1, n, nullptr, c, k, m, n});
}

}  // namespace cppflare::tensor
