// Per-layer measurements of the traced run (--trace 1). Each function
// times calls into one layer's public API from outside, or reads a series
// the program already exports through metrics::MetricsRegistry::Default(),
// and appends its numbers to a MetricSet. A check that fails (for example
// two exact index strategies disagreeing) clears *ok.
#ifndef GBXBENCH_LAYERS_H_
#define GBXBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "bench.h"
#include "core/rd_gbg.h"
#include "data/dataset.h"
#include "ml/gb_knn.h"

namespace gbxbench {

/// Counts and sums of the serving series (gbx_server_*, gbx_engine_*).
/// A snapshot taken at one instant; AccumulateWindow turns two of them
/// into the activity between, summed over every window of a phase.
struct SeriesSnapshot {
  std::map<std::string, std::pair<std::int64_t, double>> histograms;
  std::map<std::string, std::int64_t> counters;
};
SeriesSnapshot SnapshotServingSeries();
void AccumulateWindow(const SeriesSnapshot& before,
                      const SeriesSnapshot& after, SeriesSnapshot* acc);

/// Mean observation of histogram `key` in an accumulated window; NaN
/// when it saw nothing.
double SeriesMean(const SeriesSnapshot& window, const std::string& key);

/// Adds the serving-stage breakdown of one accumulated phase window under
/// `suffix` ("low" / "high" / "sat"): server stage means, server request
/// mean, engine coalescing wait and mean batch, shed and deadline counts.
void AddServingWindow(const SeriesSnapshot& window, const std::string& suffix,
                      MetricSet* out);

struct CoreInputs {
  const gbx::Dataset* train = nullptr;
  gbx::RdGbgConfig gbg;
  /// Median untraced RunGbabs wall time on the same data in this run, ms.
  double fit_ms = 0.0;
};

/// core.*, index.* and simd.sqdist_*: the fit split into RD-GBG, its
/// r_conf phase and the GBABS scan; RD-GBG under every exact index
/// strategy (outputs must agree); the KD-tree k-NN query RD-GBG issues;
/// the batched distance kernel over the training points. Also returns
/// the traced fit total through *traced_fit_ms.
void MeasureTraining(const CoreInputs& in, MetricSet* out,
                     double* traced_fit_ms, bool* ok);

/// ml.gb_knn.*, simd.*surface*, serve.engine.predict_us and
/// serve.protocol.codec_ns_per_req over the served model and the
/// held-out queries.
void MeasureModel(const gbx::GbKnnClassifier& model,
                  const gbx::Matrix& queries, MetricSet* out, bool* ok);

}  // namespace gbxbench

#endif  // GBXBENCH_LAYERS_H_
