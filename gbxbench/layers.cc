#include "layers.h"

#include <atomic>
#include <thread>
#include <vector>

#include "common/matrix.h"
#include "common/metrics.h"
#include "core/gbabs.h"
#include "index/dynamic_kd_tree.h"
#include "serve/engine.h"
#include "serve/model_io.h"
#include "serve/protocol.h"
#include "simd/simd.h"

namespace gbxbench {
namespace {

constexpr const char* kStages[] = {"decode", "queue_wait", "batch_assembly",
                                   "compute", "encode"};

gbx::metrics::Histogram* Hist(const std::string& name,
                              const gbx::metrics::Labels& labels = {}) {
  return gbx::metrics::MetricsRegistry::Default().GetHistogram(name, labels);
}

std::string StageKey(const char* stage) {
  return std::string("gbx_server_stage_ms{stage=") + stage + "}";
}

/// Calls `body` (one unit of work per call) until at least `min_s` has
/// passed and `min_calls` calls were made; returns seconds per call. The
/// timed calls go into libgbx, which is built without LTO, so the
/// compiler cannot drop them even when a result is unused.
template <typename F>
double TimePerCall(double min_s, int min_calls, F&& body) {
  const double t0 = NowS();
  int calls = 0;
  double elapsed = 0.0;
  do {
    body(calls);
    ++calls;
    elapsed = NowS() - t0;
  } while (elapsed < min_s || calls < min_calls);
  return elapsed / calls;
}

/// Order-sensitive fingerprint of a granulation: every ball's center
/// sample, radius bits and size, plus the noise and orphan lists.
std::uint64_t Fingerprint(const gbx::RdGbgResult& r) {
  std::string bytes;
  for (const gbx::GranularBall& b : r.balls.balls()) {
    bytes.append(reinterpret_cast<const char*>(&b.center_index), sizeof(int));
    bytes.append(reinterpret_cast<const char*>(&b.radius), sizeof(double));
    const int size = b.size();
    bytes.append(reinterpret_cast<const char*>(&size), sizeof(int));
  }
  for (const auto* list : {&r.noise_indices, &r.orphan_indices}) {
    for (int i : *list) {
      bytes += std::to_string(i);
      bytes += ',';
    }
    bytes += ';';
  }
  return gbx::Fnv1a64(bytes);
}

struct StrategyName {
  gbx::IndexStrategy strategy;
  const char* name;
};
constexpr StrategyName kExactStrategies[] = {
    {gbx::IndexStrategy::kFlat, "flat"},
    {gbx::IndexStrategy::kTree, "tree"},
    {gbx::IndexStrategy::kBallTree, "balltree"},
};

}  // namespace

SeriesSnapshot SnapshotServingSeries() {
  SeriesSnapshot s;
  auto take = [&](const std::string& key, gbx::metrics::Histogram* h) {
    s.histograms[key] = {h->Count(), h->Sum()};
  };
  for (const char* stage : kStages) {
    take(StageKey(stage), Hist("gbx_server_stage_ms", {{"stage", stage}}));
  }
  take("gbx_server_request_ms", Hist("gbx_server_request_ms"));
  take("gbx_engine_coalesce_delay_ms", Hist("gbx_engine_coalesce_delay_ms"));
  take("gbx_engine_batch_size", Hist("gbx_engine_batch_size"));
  auto& reg = gbx::metrics::MetricsRegistry::Default();
  for (const char* name : {"gbx_server_requests_shed_total",
                           "gbx_server_deadlines_expired_total"}) {
    s.counters[name] = reg.GetCounter(name)->Value();
  }
  return s;
}

void AccumulateWindow(const SeriesSnapshot& before,
                      const SeriesSnapshot& after, SeriesSnapshot* acc) {
  for (const auto& [key, v] : after.histograms) {
    const auto& b = before.histograms.at(key);
    auto& a = acc->histograms[key];
    a.first += v.first - b.first;
    a.second += v.second - b.second;
  }
  for (const auto& [key, v] : after.counters) {
    acc->counters[key] += v - before.counters.at(key);
  }
}

double SeriesMean(const SeriesSnapshot& window, const std::string& key) {
  const auto it = window.histograms.find(key);
  if (it == window.histograms.end() || it->second.first <= 0) {
    return std::nan("");
  }
  return it->second.second / static_cast<double>(it->second.first);
}

void AddServingWindow(const SeriesSnapshot& window, const std::string& suffix,
                      MetricSet* out) {
  const std::string sfx = "." + suffix;
  for (const char* stage : kStages) {
    out->Add(std::string("serve.server.stage_ms.") + stage + sfx,
             SeriesMean(window, StageKey(stage)), "ms");
  }
  out->Add("serve.server.request_ms" + sfx,
           SeriesMean(window, "gbx_server_request_ms"), "ms");
  out->Add("serve.engine.coalesce_ms" + sfx,
           SeriesMean(window, "gbx_engine_coalesce_delay_ms"), "ms");
  out->Add("serve.engine.mean_batch" + sfx,
           SeriesMean(window, "gbx_engine_batch_size"), "count");
  auto count = [&](const char* key) {
    const auto it = window.counters.find(key);
    return it == window.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  out->Add("serve.server.shed" + sfx, count("gbx_server_requests_shed_total"),
           "count");
  out->Add("serve.server.deadline_expired" + sfx,
           count("gbx_server_deadlines_expired_total"), "count");
}

void MeasureTraining(const CoreInputs& in, MetricSet* out,
                     double* traced_fit_ms, bool* ok) {
  // The fit as RunGbabs runs it, one span per step. The r_conf share
  // comes from the phase series RD-GBG already exports.
  gbx::metrics::Histogram* rconf =
      Hist("gbx_core_phase_ms", {{"phase", "rdgbg_rconf"}});
  const double rconf0 = rconf->Sum();
  const double t0 = NowS();
  const gbx::RdGbgResult g = gbx::GenerateRdGbg(*in.train, in.gbg);
  const double t1 = NowS();
  std::vector<int> borderline;
  const std::vector<int> sampled =
      gbx::SampleBorderlineIndices(g.balls, &borderline, 0);
  const double t2 = NowS();
  in.train->Subset(sampled);  // RunGbabs' last step: the sampled dataset
  const double t3 = NowS();
  const double rd_ms = (t1 - t0) * 1e3;
  const double scan_ms = (t2 - t1) * 1e3;
  *traced_fit_ms = (t3 - t0) * 1e3;
  out->Add("core.rd_gbg.fit_ms", rd_ms, "ms");
  out->Add("core.rd_gbg.rconf_ms", rconf->Sum() - rconf0, "ms");
  out->Add("core.gbabs.scan_ms", scan_ms, "ms");
  out->Add("core.gbabs.residual_ms", in.fit_ms - rd_ms - scan_ms, "ms");

  // RD-GBG under each exact strategy: identical output, different time.
  const std::uint64_t want = Fingerprint(g);
  double best_ms = 0.0;
  for (const StrategyName& s : kExactStrategies) {
    gbx::RdGbgConfig cfg = in.gbg;
    cfg.index_strategy = s.strategy;
    const double t = NowS();
    const gbx::RdGbgResult r = gbx::GenerateRdGbg(*in.train, cfg);
    const double ms = (NowS() - t) * 1e3;
    if (Fingerprint(r) != want) *ok = false;
    out->Add(std::string("index.rdgbg_ms.") + s.name, ms, "ms");
    best_ms = best_ms == 0.0 ? ms : std::min(best_ms, ms);
  }
  out->Add("index.rdgbg_auto_over_best", rd_ms / best_ms, "ratio");

  // The neighbour query RD-GBG's tree strategy issues: k = rho + 1
  // nearest live points of a training point, excluding itself.
  const gbx::Matrix& x = g.balls.scaled_features();
  const int n = x.rows();
  const int d = x.cols();
  gbx::DynamicKdTree tree(&x);
  const int k = in.gbg.density_tolerance + 1;
  const double kd_s = TimePerCall(0.3, 50, [&](int i) {
    const int row = static_cast<int>((static_cast<long long>(i) * 7919) % n);
    tree.KNearestSquared(x.Row(row), k, row);
  });
  out->Add("index.kd_knn_us", kd_s * 1e6, "us");

  // The batched distance kernel of RD-GBG's flat scan over all n points.
  const gbx::SoaMatrix soa = gbx::SoaMatrix::FromMatrix(x);
  std::vector<double> dist(n);
  const double sq_s = TimePerCall(0.3, 20, [&](int i) {
    gbx::simd::SquaredDistanceBatch(x.Row(i % n), soa, 0, n, dist.data());
  });
  out->Add("simd.sqdist_ns_per_row", sq_s * 1e9 / n, "ns");
  // Bytes computed from the operand size (n rows x d doubles per call),
  // not measured on the memory bus.
  out->Add("simd.sqdist_gbps", static_cast<double>(n) * d * 8 / sq_s / 1e9,
           "GB/s");
}

void MeasureModel(const gbx::GbKnnClassifier& model,
                  const gbx::Matrix& queries, MetricSet* out, bool* ok) {
  const int nq = queries.rows();
  const int d = queries.cols();
  const gbx::Matrix scaled = model.scaler().Transform(queries);
  const auto& balls = model.balls().balls();
  const int m = static_cast<int>(balls.size());
  gbx::Matrix centers(m, d);
  std::vector<double> radii(m);
  for (int b = 0; b < m; ++b) {
    std::copy(balls[b].center.begin(), balls[b].center.end(), centers.Row(b));
    radii[b] = balls[b].radius;
  }
  const gbx::SoaMatrix soa = gbx::SoaMatrix::FromMatrix(centers);
  std::vector<double> scores(m);
  const double gap_s = TimePerCall(0.2, 20, [&](int i) {
    gbx::simd::MinSurfaceGap(scaled.Row(i % nq), soa, radii.data(), 0, m);
  });
  const double score_s = TimePerCall(0.2, 20, [&](int i) {
    gbx::simd::SurfaceScores(scaled.Row(i % nq), soa, radii.data(), 0, m,
                             scores.data());
  });
  out->Add("simd.min_surface_gap_ns_per_ball", gap_s * 1e9 / m, "ns");
  out->Add("simd.surface_scores_ns_per_ball", score_s * 1e9 / m, "ns");

  // GB-kNN predict under the resolved strategy and each exact one.
  std::vector<int> labels(nq);
  const double predict_s = TimePerCall(0.3, nq, [&](int i) {
    labels[i % nq] = model.Predict(queries.Row(i % nq));
  });
  out->Add("ml.gb_knn.predict_us", predict_s * 1e6, "us");
  double best_s = 0.0;
  for (const StrategyName& s : kExactStrategies) {
    gbx::GbKnnClassifier copy = model;
    copy.set_index_strategy(s.strategy);
    const double t = TimePerCall(0.2, std::min(nq, 200), [&](int i) {
      if (copy.Predict(queries.Row(i % nq)) != labels[i % nq]) *ok = false;
    });
    out->Add(std::string("ml.gb_knn.predict_us.") + s.name, t * 1e6, "us");
    best_s = best_s == 0.0 ? t : std::min(best_s, t);
  }
  out->Add("ml.gb_knn.auto_over_best", predict_s / best_s, "ratio");
  out->Add("ml.gb_knn.balls", m, "count");

  std::vector<gbx::Matrix> batches;
  for (int r = 0; r + 64 <= nq; r += 64) {
    gbx::Matrix b(64, d);
    for (int i = 0; i < 64; ++i) {
      std::copy(queries.Row(r + i), queries.Row(r + i) + d, b.Row(i));
    }
    batches.push_back(std::move(b));
  }
  const double batch_s = TimePerCall(0.3, 4, [&](int i) {
    model.PredictBatch(batches[i % batches.size()]);
  });
  out->Add("ml.gb_knn.batch64_us_per_query", batch_s * 1e6 / 64, "us");

  // InferenceEngine::Predict from two closed-loop callers, no sockets.
  gbx::StatusOr<gbx::LoadedModel> loaded =
      gbx::ModelFromString(gbx::ModelToString(model));
  if (!loaded.ok()) {
    *ok = false;
    return;
  }
  gbx::InferenceEngine engine(std::move(loaded).value());
  std::vector<double> caller_us(2, 0.0);
  std::atomic<bool> engine_ok{true};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      caller_us[c] = 1e6 * TimePerCall(0.4, 50, [&](int i) {
        const int q = (i * 2 + c) % nq;
        gbx::StatusOr<int> label = engine.Predict(queries.Row(q), d);
        if (!label.ok() || *label != labels[q]) engine_ok = false;
      });
    });
  }
  for (std::thread& t : callers) t.join();
  if (!engine_ok) *ok = false;
  out->Add("serve.engine.predict_us", (caller_us[0] + caller_us[1]) / 2, "us");

  // Wire codec per request: format, frame, decode, parse.
  gbx::FrameDecoder decoder;
  std::string payload, error, model_name;
  std::vector<double> parsed;
  const double codec_s = TimePerCall(0.2, nq, [&](int i) {
    const std::string frame = gbx::EncodeFrame(
        gbx::FormatPredictPayload("", queries.Row(i % nq), d));
    decoder.Feed(frame.data(), frame.size());
    decoder.Next(&payload, &error);
    if (!gbx::ParsePredictPayload(payload, &model_name, nullptr, &parsed)
             .ok()) {
      *ok = false;
    }
  });
  out->Add("serve.protocol.codec_ns_per_req", codec_s * 1e9, "ns");
}

}  // namespace gbxbench
