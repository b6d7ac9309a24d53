// Two-lane packed double kernels for the training hot loops, written with
// the GCC/Clang vector extension (SSE2 on x86-64, no -march needed).
//
// Element-wise only: each lane performs exactly the operations of the scalar
// loop it replaces, in the same order — no reassociation, no fused
// multiply-add (the build is ISO C++, so -ffp-contract=off) — so every
// result is bit-identical to the scalar code. Reductions (dot products)
// stay scalar because packing them would change the summation order.

#ifndef CROSSMODAL_ML_PACKED_H_
#define CROSSMODAL_ML_PACKED_H_

#include <cmath>
#include <cstddef>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "ml/dataset.h"

namespace crossmodal {
namespace packed {

using Double2 = double __attribute__((vector_size(16)));

inline Double2 Load(const double* p) {
  Double2 x{};
  std::memcpy(&x, p, sizeof(x));
  return x;
}

inline void Store(double* p, Double2 x) { std::memcpy(p, &x, sizeof(x)); }

/// Lane-wise IEEE square root (correctly rounded, like std::sqrt).
inline Double2 Sqrt(Double2 x) {
#if defined(__SSE2__)
  return _mm_sqrt_pd(x);
#else
  return Double2{std::sqrt(x[0]), std::sqrt(x[1])};
#endif
}

/// y[j] += x[j] * a for j < n.
inline void AddScaled(double* y, const double* x, double a, size_t n) {
  size_t j = 0;
  for (; j + 2 <= n; j += 2) Store(y + j, Load(y + j) + Load(x + j) * a);
  for (; j < n; ++j) y[j] += x[j] * a;
}

/// y[j] = 0.0 + x.rows[0] + x.rows[1] + ... for j < n, where row k is
/// w[idx_k * n + j] * val_k for x's k-th entry (idx_k, val_k): the sparse
/// row times the row-major matrix `w`, summed in entry order exactly as
/// zeroing y and calling AddScaled per entry would, with each 8-wide block
/// of y held in registers across the entries.
inline void SparseTimesMatrix(const SparseRow& x, const double* w, size_t n,
                              double* y) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    Double2 a0{0.0, 0.0}, a1 = a0, a2 = a0, a3 = a0;
    for (const auto& [idx, val] : x.entries) {
      const double* r = w + static_cast<size_t>(idx) * n + j;
      const double v = val;
      a0 = a0 + Load(r) * v;
      a1 = a1 + Load(r + 2) * v;
      a2 = a2 + Load(r + 4) * v;
      a3 = a3 + Load(r + 6) * v;
    }
    Store(y + j, a0);
    Store(y + j + 2, a1);
    Store(y + j + 4, a2);
    Store(y + j + 6, a3);
  }
  for (; j < n; ++j) {
    double a = 0.0;
    for (const auto& [idx, val] : x.entries) {
      a += w[static_cast<size_t>(idx) * n + j] * val;
    }
    y[j] = a;
  }
}

/// w[idx_k * n + j] += d[j] * val_k for each entry (idx_k, val_k) of x and
/// j < n: the sparse outer-product update of the row-major matrix `w`, one
/// add per element (x's indices are distinct), with each 8-wide block of d
/// held in registers across the entries.
inline void AddOuterToRows(const SparseRow& x, const double* d, size_t n,
                           double* w) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const Double2 d0 = Load(d + j), d1 = Load(d + j + 2),
                  d2 = Load(d + j + 4), d3 = Load(d + j + 6);
    for (const auto& [idx, val] : x.entries) {
      double* r = w + static_cast<size_t>(idx) * n + j;
      const double v = val;
      Store(r, Load(r) + d0 * v);
      Store(r + 2, Load(r + 2) + d1 * v);
      Store(r + 4, Load(r + 4) + d2 * v);
      Store(r + 6, Load(r + 6) + d3 * v);
    }
  }
  if (j < n) {
    for (const auto& [idx, val] : x.entries) {
      AddScaled(w + static_cast<size_t>(idx) * n + j, d + j, val, n - j);
    }
  }
}

/// dst[j] += src[j], then src[j] = 0, for j < n: folds one slice partial
/// into the batch gradient and leaves the partial clear for the next batch.
inline void FoldInto(double* dst, double* src, size_t n) {
  size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    Store(dst + j, Load(dst + j) + Load(src + j));
    Store(src + j, Double2{0.0, 0.0});
  }
  for (; j < n; ++j) {
    dst[j] += src[j];
    src[j] = 0.0;
  }
}

}  // namespace packed
}  // namespace crossmodal

#endif  // CROSSMODAL_ML_PACKED_H_
