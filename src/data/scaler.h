// Feature scaling. RD-GBG and every distance-based component operate on
// Euclidean distances, so features are min-max scaled to [0, 1] before
// granulation (constant features map to 0).
#ifndef GBX_DATA_SCALER_H_
#define GBX_DATA_SCALER_H_

#include <vector>

#include "data/dataset.h"

namespace gbx {

/// Min-max scaler: x' = (x - min) / (max - min), per feature.
class MinMaxScaler {
 public:
  /// Learns per-feature min/max from `x`.
  void Fit(const Matrix& x);

  /// Applies the learned transform (values outside the fitted range are
  /// extrapolated linearly, not clipped).
  Matrix Transform(const Matrix& x) const;

  /// Transforms one row of mins().size() features into `out` (which may
  /// alias `in`); the same expression Transform applies to every row.
  void TransformRow(const double* in, double* out) const;

  Matrix FitTransform(const Matrix& x) {
    Fit(x);
    return Transform(x);
  }

  /// Restores a previously fitted state (model deserialization). `mins`
  /// and `maxs` must have equal, nonzero length with mins[j] <= maxs[j].
  void Restore(std::vector<double> mins, std::vector<double> maxs);

  bool fitted() const { return !mins_.empty(); }
  const std::vector<double>& mins() const { return mins_; }
  const std::vector<double>& maxs() const { return maxs_; }

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

/// Z-score scaler: x' = (x - mean) / std (std==0 maps to 0).
class StandardScaler {
 public:
  void Fit(const Matrix& x);
  Matrix Transform(const Matrix& x) const;
  Matrix FitTransform(const Matrix& x) {
    Fit(x);
    return Transform(x);
  }

  bool fitted() const { return !means_.empty(); }
  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stds() const { return stds_; }

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

/// Convenience: returns a copy of `ds` with min-max scaled features.
Dataset MinMaxScaled(const Dataset& ds);

}  // namespace gbx

#endif  // GBX_DATA_SCALER_H_
