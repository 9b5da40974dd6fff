// Umbrella header for the gbx library: a from-scratch C++20 reproduction
// of "Approximate Borderline Sampling using Granular-Ball for
// Classification Tasks" (Xie, Zhang, Xia — ICDE 2025).
//
// Quickstart:
//
//   #include "gbx/gbx.h"
//
//   gbx::Dataset data = ...;                 // features + labels
//   gbx::GbabsConfig cfg;                    // rho = 5 by default
//   gbx::GbabsResult res = gbx::RunGbabs(data, cfg);
//   // res.sampled is the borderline training set; res.gbg.balls the
//   // non-overlapping pure granular balls RD-GBG generated.
//
// Subsystem headers can also be included individually (src/<lib>/*.h).
#ifndef GBX_GBX_H_
#define GBX_GBX_H_

// common/ — foundations: dense Matrix, PCG32 RNG, Status/StatusOr, CHECK
// macros, wall-clock Stopwatch, failpoint fault injection, and the
// shared thread pool behind every parallel loop in the library.
#include "common/check.h"       // IWYU pragma: export
#include "common/failpoint.h"   // IWYU pragma: export
#include "common/matrix.h"      // IWYU pragma: export
#include "common/parallel.h"    // IWYU pragma: export
#include "common/rng.h"         // IWYU pragma: export
#include "common/status.h"      // IWYU pragma: export
#include "common/stopwatch.h"   // IWYU pragma: export

// data/ — dataset currency and I/O: Dataset, CSV/ARFF loaders, min-max
// scaling, stratified splits, synthetic generators, noise injection,
// validation, and the Table I paper suite registry.
#include "data/arff.h"          // IWYU pragma: export
#include "data/csv.h"           // IWYU pragma: export
#include "data/dataset.h"       // IWYU pragma: export
#include "data/noise.h"         // IWYU pragma: export
#include "data/paper_suite.h"   // IWYU pragma: export
#include "data/scaler.h"        // IWYU pragma: export
#include "data/split.h"         // IWYU pragma: export
#include "data/synthetic.h"     // IWYU pragma: export
#include "data/validate.h"      // IWYU pragma: export

// index/ — exact nearest-neighbor search behind every distance-based
// component: KnnIndex (the static k-nearest primitive: a KD-tree at
// d <= 2, the SIMD flat scan above, sharing its scan loop with RD-GBG),
// the deletion-capable dynamic trees (DynamicKdTree and BallTree, one
// tombstoned tree over a box or a covering-ball node bound), the shared
// Neighbor result types, and the flat/tree/balltree strategy knob.
#include "index/dynamic_kd_tree.h" // IWYU pragma: export
#include "index/index_strategy.h"  // IWYU pragma: export
#include "index/knn_index.h"       // IWYU pragma: export

// simd/ — batched flat-scan distance kernels behind runtime dispatch
// (GBX_SIMD: scalar|neon|avx2|avx512|auto); bit-exact across levels.
#include "simd/simd.h"          // IWYU pragma: export

// core/ — the paper's algorithms: granular balls, RD-GBG generation
// (Alg. 1), GBABS borderline sampling (Alg. 2), and ball-set persistence.
#include "core/gb_io.h"         // IWYU pragma: export
#include "core/gbabs.h"         // IWYU pragma: export
#include "core/granular_ball.h" // IWYU pragma: export
#include "core/rd_gbg.h"        // IWYU pragma: export

// sampling/ — the comparison samplers of §V (SRS, SMOTE family, Tomek,
// GGBS/IGBS, purity-threshold GBG, k-means) behind one Sampler interface.
#include "sampling/borderline_smote.h"  // IWYU pragma: export
#include "sampling/gbabs_sampler.h"     // IWYU pragma: export
#include "sampling/ggbs.h"              // IWYU pragma: export
#include "sampling/igbs.h"              // IWYU pragma: export
#include "sampling/kmeans.h"            // IWYU pragma: export
#include "sampling/purity_gbg.h"        // IWYU pragma: export
#include "sampling/sampler.h"           // IWYU pragma: export
#include "sampling/smote.h"             // IWYU pragma: export
#include "sampling/smotenc.h"           // IWYU pragma: export
#include "sampling/srs.h"               // IWYU pragma: export
#include "sampling/tomek.h"             // IWYU pragma: export

// ml/ — downstream classifiers (kNN, CART, RF, XGB/LGBM-style boosting,
// SVM, naive Bayes, GB-kNN), metrics, and classification reports.
#include "ml/classifier.h"      // IWYU pragma: export
#include "ml/decision_tree.h"   // IWYU pragma: export
#include "ml/gb_knn.h"          // IWYU pragma: export
#include "ml/linear_svm.h"      // IWYU pragma: export
#include "ml/knn.h"             // IWYU pragma: export
#include "ml/lgbm.h"            // IWYU pragma: export
#include "ml/metrics.h"         // IWYU pragma: export
#include "ml/naive_bayes.h"     // IWYU pragma: export
#include "ml/report.h"          // IWYU pragma: export
#include "ml/random_forest.h"   // IWYU pragma: export
#include "ml/xgb.h"             // IWYU pragma: export

// stats/ — evaluation statistics: descriptive summaries, Gaussian KDE,
// competition ranking, Wilcoxon signed-rank (Table III).
#include "stats/descriptive.h"  // IWYU pragma: export
#include "stats/kde.h"          // IWYU pragma: export
#include "stats/ranking.h"      // IWYU pragma: export
#include "stats/wilcoxon.h"     // IWYU pragma: export

// viz/ — 2-D embeddings for the figures: PCA and exact t-SNE.
#include "viz/pca.h"            // IWYU pragma: export
#include "viz/tsne.h"           // IWYU pragma: export

// cluster/ — clustering workloads: density-peaks clustering and its
// granular-ball acceleration, plus unsupervised (label-free) GBG.
#include "cluster/dpc.h"              // IWYU pragma: export
#include "cluster/unsupervised_gbg.h" // IWYU pragma: export

// exp/ — the experiment harness: scaling config, cross-validated
// sampler x classifier runner, CSV result export, table printing.
#include "exp/experiment_config.h"  // IWYU pragma: export
#include "exp/result_io.h"          // IWYU pragma: export
#include "exp/runner.h"             // IWYU pragma: export
#include "exp/table_printer.h"      // IWYU pragma: export

// serve/ — model serving: versioned trained-model artifacts (gbx-model
// v1 save/load with bit-identical predictions), the micro-batching
// InferenceEngine, and the network front-end — gbx-wire framing, the
// hot-swappable ModelRegistry, and the poll(2) Server behind
// `gbx_serve serve` and gbx_loadgen.
#include "serve/engine.h"     // IWYU pragma: export
#include "serve/model_io.h"   // IWYU pragma: export
#include "serve/protocol.h"   // IWYU pragma: export
#include "serve/registry.h"   // IWYU pragma: export
#include "serve/server.h"     // IWYU pragma: export

#endif  // GBX_GBX_H_
