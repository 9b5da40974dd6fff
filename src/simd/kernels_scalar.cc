// The scalar reference kernels: plain row loops over the shared helpers
// in kernels.h. Every vector level must match these bit for bit
// (tests/simd_kernel_test.cc); this TU also builds with
// -ffp-contract=off so the reference itself cannot be FMA-contracted
// out from under the contract.
#include <algorithm>
#include <limits>

#include "simd/kernels.h"

namespace gbx {
namespace simd {
namespace internal {
namespace {

void SquaredDistanceBatchScalar(const double* q, const SoaMatrix& points,
                                int begin, int end, double* out) {
  for (int i = begin; i < end; ++i) out[i] = RowSquaredDistance(q, points, i);
}

double MinSurfaceGapScalar(const double* q, const SoaMatrix& centers,
                           const double* radii, int begin, int end) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = begin; i < end; ++i) {
    // std::min drops a NaN gap (returns `best`); the vector levels
    // reproduce this with compare+select, never a bare vector-min with
    // different NaN semantics.
    best = std::min(best, RowSurfaceGap(q, centers, radii, i));
  }
  return best;
}

void SurfaceScoresScalar(const double* q, const SoaMatrix& centers,
                         const double* radii, int begin, int end,
                         double* out) {
  for (int i = begin; i < end; ++i) {
    out[i] = RowSurfaceScore(q, centers, radii, i);
  }
}

const Ops kScalarOps = {
    SquaredDistanceBatchScalar,
    MinSurfaceGapScalar,
    SurfaceScoresScalar,
    SurfaceTopKRows,
    SquaredTopKRows,
    kRowsQueriesPerPass,
};

}  // namespace

const Ops* ScalarOps() { return &kScalarOps; }

int SurfaceTopKRows(const double* q, const SoaMatrix& centers,
                    const double* radii, int begin, int end, int k,
                    std::pair<double, int>* out) {
  TopK top(k, out);
  for (int i = begin; i < end; ++i) {
    top.Offer(RowSurfaceScore(q, centers, radii, i), i);
  }
  return top.count();
}

void SquaredTopKRows(const double* const* queries, int num_queries,
                     const SoaMatrix& rows, const std::uint8_t* live,
                     const int* exclude, int begin, int end, int k,
                     std::pair<double, int>* out, int* counts) {
  TopK top[kRowsQueriesPerPass];
  for (int g = 0; g < num_queries; ++g) {
    top[g] = TopK(k, out + static_cast<std::size_t>(g) * k);
  }
  for (int i = begin; i < end; ++i) {
    OfferRowSquared(queries, num_queries, rows, live, exclude, i, top);
  }
  for (int g = 0; g < num_queries; ++g) counts[g] = top[g].count();
}

}  // namespace internal
}  // namespace simd
}  // namespace gbx
