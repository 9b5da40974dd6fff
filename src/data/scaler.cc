#include "data/scaler.h"

#include <cmath>
#include <limits>

namespace gbx {

void MinMaxScaler::Fit(const Matrix& x) {
  GBX_CHECK_GT(x.rows(), 0);
  const int p = x.cols();
  mins_.assign(p, std::numeric_limits<double>::infinity());
  maxs_.assign(p, -std::numeric_limits<double>::infinity());
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.Row(i);
    for (int j = 0; j < p; ++j) {
      mins_[j] = std::min(mins_[j], row[j]);
      maxs_[j] = std::max(maxs_[j], row[j]);
    }
  }
}

void MinMaxScaler::Restore(std::vector<double> mins,
                           std::vector<double> maxs) {
  GBX_CHECK(!mins.empty());
  GBX_CHECK_EQ(mins.size(), maxs.size());
  for (std::size_t j = 0; j < mins.size(); ++j) {
    GBX_CHECK_LE(mins[j], maxs[j]);
  }
  mins_ = std::move(mins);
  maxs_ = std::move(maxs);
}

Matrix MinMaxScaler::Transform(const Matrix& x) const {
  GBX_CHECK(fitted());
  GBX_CHECK_EQ(x.cols(), static_cast<int>(mins_.size()));
  Matrix out(x.rows(), x.cols());
  for (int i = 0; i < x.rows(); ++i) TransformRow(x.Row(i), out.Row(i));
  return out;
}

void MinMaxScaler::TransformRow(const double* in, double* out) const {
  const std::size_t p = mins_.size();
  for (std::size_t j = 0; j < p; ++j) {
    const double range = maxs_[j] - mins_[j];
    out[j] = range > 0 ? (in[j] - mins_[j]) / range : 0.0;
  }
}

void StandardScaler::Fit(const Matrix& x) {
  GBX_CHECK_GT(x.rows(), 0);
  const int p = x.cols();
  means_.assign(p, 0.0);
  stds_.assign(p, 0.0);
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.Row(i);
    for (int j = 0; j < p; ++j) means_[j] += row[j];
  }
  for (int j = 0; j < p; ++j) means_[j] /= x.rows();
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.Row(i);
    for (int j = 0; j < p; ++j) {
      const double d = row[j] - means_[j];
      stds_[j] += d * d;
    }
  }
  for (int j = 0; j < p; ++j) stds_[j] = std::sqrt(stds_[j] / x.rows());
}

Matrix StandardScaler::Transform(const Matrix& x) const {
  GBX_CHECK(fitted());
  GBX_CHECK_EQ(x.cols(), static_cast<int>(means_.size()));
  Matrix out(x.rows(), x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    const double* src = x.Row(i);
    double* dst = out.Row(i);
    for (int j = 0; j < x.cols(); ++j) {
      dst[j] = stds_[j] > 0 ? (src[j] - means_[j]) / stds_[j] : 0.0;
    }
  }
  return out;
}

Dataset MinMaxScaled(const Dataset& ds) {
  MinMaxScaler scaler;
  Matrix scaled = scaler.FitTransform(ds.x());
  return Dataset(std::move(scaled), ds.y(), ds.num_classes());
}

}  // namespace gbx
