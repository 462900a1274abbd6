#pragma once
// Shared high-performance math kernels: the single substrate under
// Matrix::operator*, Cholesky, the im2col conv matmuls and the GP predict
// path (DESIGN.md §12).
//
// Every kernel is cache-blocked and FMA-friendly (restrict pointers,
// register-tiled multi-accumulator inner loops) with two engine variants
// selected once per process: an AVX2+FMA path (x86-64 hosts that report
// both features at runtime) and a portable generic path.  An optional
// ThreadPool parallelises over fixed-size row blocks.
//
// Determinism contract (matches the PR-1 batched-evaluation promise):
//   * results are bit-identical at any thread count, because row blocks are
//     a fixed size (independent of the worker count) and every output
//     element is produced by its own accumulator chain in a fixed reduction
//     order;
//   * a kernel invoked on a sub-range of rows produces bit-identical rows
//     to the full-range call (single-row and paired-row micro-kernel
//     variants issue the same per-element operation sequence), which is
//     what makes GpRegressor::predict() == predict_batch() row-for-row.
// Callers already inside a ThreadPool::parallel_for body must pass a null
// pool (nested parallel_for throws by contract).

#include <cstddef>
#include <string>
#include <vector>

namespace yoso {

class ThreadPool;

namespace kernels {

/// Engine selected for this process: "avx2+fma" or "generic".
std::string active_isa();

/// C (m x n) = A (m x k) * B (k x n); all row-major, C overwritten.
void gemm(const double* a, const double* b, double* c, std::size_t m,
          std::size_t k, std::size_t n, ThreadPool* pool = nullptr);

/// y (m) = A (m x n) * x; one fixed-order dot per output row.
void gemv(const double* a, const double* x, double* y, std::size_t m,
          std::size_t n);

/// Y (k x n) += X (k x m) * A (m x n), X and Y rows at strides ldx >= m
/// and ldy >= n: every Y(r, j) accumulates X(r, i) * A(i, j) over i in
/// order, one chain per element, so row r never depends on k, on the other
/// rows or on how the columns are vectorised.  k rows in one call are
/// therefore bit-identical to k gemv_t_acc calls, but each column panel of
/// A is streamed from memory once for all of them (the controller's
/// lockstep round).
void gemm_acc(const double* x, std::size_t ldx, const double* a, double* y,
              std::size_t ldy, std::size_t k, std::size_t m, std::size_t n);

/// y (n) += A^T x where A is (m x n): gemm_acc with one row.
void gemv_t_acc(const double* a, const double* x, double* y, std::size_t m,
                std::size_t n);

/// Fixed-order dot product: four independent accumulator lanes combined as
/// ((l0+l1)+(l2+l3)) on every engine, so the reduction order never depends
/// on the caller.
double dot(const double* a, const double* b, std::size_t n);

/// C (m x n) = A (m x k) * B^T where B is (n x k): the im2col conv forward
/// product (out = cols * W^T).  B is packed to k x n internally.
void sgemm_abt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t n, std::size_t k, ThreadPool* pool = nullptr);

/// C (m x n) = A (m x k) * B (k x n); C overwritten.
void sgemm_ab(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, ThreadPool* pool = nullptr);

/// C (k x n) += A^T * B where A is (m x k), B is (m x n): the conv weight
/// gradient accumulation.
void sgemm_atb_acc(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, ThreadPool* pool = nullptr);

/// C (k x n) += A^T * B where A is (m x k), B is (m x n): the double
/// precision twin of sgemm_atb_acc, and gemm_acc with X = A^T (the same
/// engine reads X column-wise).  Each C element accumulates over i in
/// order, so the result is bit-identical at any thread count.
void gemm_atb_acc(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n, ThreadPool* pool = nullptr);

/// Column-major pack of a row-major (rows x dim) matrix plus per-row
/// squared norms: the GP training set is packed once at fit time so every
/// predict reads unit-stride panels.
struct PackedRows {
  std::size_t rows = 0;
  std::size_t dim = 0;
  std::vector<double> data;   ///< dim x rows: data[c * rows + r] = src(r, c)
  std::vector<double> norms;  ///< norms[r] = dot(src_r, src_r)
};
PackedRows pack_rows(const double* src, std::size_t rows, std::size_t dim);

/// out (q x packed.rows) = clamped-at-zero squared Euclidean distances
/// between every query row and every packed row, via the norm expansion
/// |a-b|^2 = |a|^2 + |b|^2 - 2 a.b with the clamp fused into the product
/// epilogue (no second pass over the q x n block).
void pairwise_sq_dists(const double* queries, std::size_t q,
                       const PackedRows& packed, double* out,
                       ThreadPool* pool = nullptr);

/// out[i] = mult * exp(scale * in[i]); in == out aliasing is allowed.
/// Both engines use the same range-reduced polynomial (max relative error
/// ~3e-16 vs std::exp), and the vector path's remainder lanes run a scalar
/// replica of the identical operation sequence, so the result for element
/// i depends only on in[i] and i's position within the row.
void exp_scale(const double* in, double* out, std::size_t n, double scale,
               double mult);

/// Fused kernel-row evaluation: out[i] = mult * exp(scale * in[i]) and the
/// return value is sum_i out[i] * w[i], in one pass (in == out allowed).
/// The exp chains are those of exp_scale exactly (element values are
/// bit-identical); the dot accumulates in a fixed lane pattern that depends
/// only on n, so repeated calls on the same row always agree.  This is the
/// GP predictive-mean hot loop: K*(row) = exp of a distance row, mean
/// contribution = K*(row) . alpha.
double exp_scale_dot(const double* in, double* out, const double* w,
                     std::size_t n, double scale, double mult);

/// Coefficients of one Adam step: bc1 / bc2 are the bias corrections
/// 1 - beta^t, grad_scale the gradient-clipping factor (1 when unclipped).
struct AdamCoeffs {
  double lr = 0.0;
  double grad_scale = 1.0;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double bc1 = 1.0;
  double bc2 = 1.0;
};

/// One fused Adam pass over n parameters: g = grad[i] * grad_scale,
/// m = beta1 m + (1 - beta1) g, v = beta2 v + ((1 - beta2) g) g, value -=
/// (lr (m / bc1)) / (sqrt(v / bc2) + eps), then grad[i] = 0.  Every
/// operation rounds on its own (nothing is contracted into an fma) on both
/// engines, so the result is the scalar loop's bit for bit.
void adam_update(double* value, double* grad, double* m, double* v,
                 std::size_t n, const AdamCoeffs& c);

/// The engine bodies behind gemm_acc, callable directly so that one host
/// can hold both engines to the same contract.  gemm_acc_avx2 needs
/// active_isa() == "avx2+fma".
namespace engine {
void gemm_acc_generic(const double* x, std::size_t ldx, const double* a,
                      double* y, std::size_t ldy, std::size_t k,
                      std::size_t m, std::size_t n);
#if defined(__x86_64__)
void gemm_acc_avx2(const double* x, std::size_t ldx, const double* a,
                   double* y, std::size_t ldy, std::size_t k, std::size_t m,
                   std::size_t n);
#endif
}  // namespace engine

}  // namespace kernels
}  // namespace yoso
