// Raw GEMM kernels on contiguous row-major float buffers.
//
// All kernels *accumulate* into C (C += op(A) * op(B)); callers zero C when
// they want a plain product. Accumulating form is what autograd needs when
// several edges contribute to one gradient buffer.
//
// One register-blocked micro-kernel serves all three entry points. It holds
// a 6 x 16 tile of C in twelve 8-float accumulators and walks the reduction
// once, with one A broadcast per tile row and two B loads per step; the
// release build (-march=x86-64-v3) turns each step into twelve vfmadd231ps.
// The operands differ only in layout:
//   gemm_nn  A in place with strides (k, 1), B rows in place.
//   gemm_tn  A in place with strides (1, k), B rows in place; C's rows are
//            A's columns and the reduction runs over A's rows.
//   gemm_nt  B^T packed once per call into 16-column panels, shared
//            read-only by every chunk, then the NN layout on the panels.
// A column tail narrower than 16 runs the same kernel on a zero-padded B
// panel and a C tile staged through a stack buffer, so every element of a
// kernel sees the same instruction sequence.
//
// Per-element accumulation order (fixed; results are memcmp-reproducible):
//   gemm_nn  c = C[i,j]; c += A[i,p] * B[p,j] for p ascending; C[i,j] = c
//   gemm_tn  c = C[q,j]; c += A[i,q] * B[i,j] for i ascending; C[q,j] = c
//   gemm_nt  s = 0;      s += A[i,p] * B[j,p] for p ascending; C[i,j] += s
// Each `+= x * y` is one fused multiply-add in the release build and a
// multiply then an add in the -O1 sanitizer builds (no FMA there); either
// way it is the same operation for every element, tile and thread.
//
// Parallel items are row tiles of C: ceil(rows / 6) items of 6 * 2 * depth
// * n flops each, dispatched through the compute backend
// (tensor/backend.h). A chunk never splits a tile and the decomposition
// depends on the shape only, so results are bitwise identical for 1 vs N
// compute threads.
//
// Why no intrinsics: the kernel is written with GCC vector types, which the
// release flags lower to AVX2 + FMA and the sanitizer builds lower to SSE —
// one source, no CPUID dispatch, no target attributes, no new build option
// (cflint R16 keeps ISA-specific code in the runtime-dispatched SHA-256
// unit). The file is compiled with strict IEEE semantics: the kernel needs
// no reassociation, and fast-math would make the order above a hope.
//
// While the tracer is armed, each call is timed into the process-wide
// histograms tensor.gemm_{nn,nt,tn}_ns (core/trace.h, CF_TRACE_HISTOGRAM).
#pragma once

#include <cstdint>

namespace cppflare::tensor {

/// C[M,N] += A[M,K] * B[K,N]
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

/// C[M,N] += A[M,K] * B[N,K]^T   (i.e. C[i,j] += dot(A row i, B row j))
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

/// C[K,N] += A[M,K]^T * B[M,N]
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

}  // namespace cppflare::tensor
