// The three workloads and the helpers they share. See perfbench/README.md
// for why each workload exists and what each metric is predicted to move.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "api/index.h"
#include "common.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace perfbench {

inline constexpr size_t kK = 10;
/// Worker threads: nproc - 1 on a 4-vCPU host, leaving one
/// core for the load generator and the kernel.
inline constexpr size_t kWorkers = 3;
inline constexpr double kTargetRecall = 0.9;

Report RunBatchStatic(const Args& args);
Report RunServeNet(const Args& args);
Report RunChurnDynamic(const Args& args);

/// One span buffer per load-generator lane.
using LaneLogs = std::vector<std::unique_ptr<SpanLog>>;
LaneLogs MakeLaneLogs(Tracer* tracer, size_t lanes);

/// Writes the traced run's spans to <trace_dir>/<workload>-<seed>.spans.jsonl.
void WriteTrace(const Tracer& tracer, const Args& args);

/// Scales a nominal size by --scale, never below `floor_n`.
size_t Scaled(const Args& args, size_t nominal, size_t floor_n);

/// Seeded deep-96-like inputs: base rows, held-out calibration queries and
/// disjoint evaluation queries, with exact ground truth for both query
/// sets against the first `gt_rows` base rows.
struct Inputs {
  blink::MatrixF base;
  blink::MatrixF cal;
  blink::MatrixF eval;
  blink::Matrix<uint32_t> gt_cal;
  blink::Matrix<uint32_t> gt_eval;
};
Inputs MakeInputs(size_t n, size_t n_cal, size_t n_eval, size_t gt_rows,
                  uint64_t seed, blink::ThreadPool* pool);

/// Build(spec, data), exiting with status 2 on failure. Stores the
/// anonymous huge-page bytes the process gained across the call.
blink::Index BuildOrDie(const blink::IndexSpec& spec, blink::MatrixViewF data,
                        blink::ThreadPool* pool, double* huge_bytes);

struct Layers;
/// Traced set-up of a static LVQ spec: times the two halves of Build
/// through their public constructors (LvqStorage, then VamanaIndex over
/// it) as spans quant.encode and graph.build under `parent`.
void TimeEncodeAndGraph(const blink::IndexSpec& spec, blink::MatrixViewF data,
                        blink::ThreadPool* pool, SpanLog* log, uint64_t parent,
                        Layers* layers);

/// Index::Calibrate to kTargetRecall on the calibration queries.
blink::SearchOptions CalibrateOrDie(const blink::Index& index,
                                    const Inputs& in, blink::ThreadPool* pool);

/// Single-thread closed-loop Searcher::Search over `queries`, `rounds`
/// times; returns the median per-query time in microseconds.
double SearcherP50Us(const blink::Index& index, blink::MatrixViewF queries,
                     const blink::SearchOptions& opts, size_t rounds);

/// Mean time (ns) of one LVQ distance through the storage's public
/// PrepareQuery/Distance pair, over seeded random ids. The index must be
/// a static LVQ flavor; returns 0 otherwise.
double StaticLvqNsPerDistance(const blink::Index& index,
                              blink::MatrixViewF queries, uint64_t seed);

/// One open-loop request as the generator saw it.
struct Sample {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
};

/// Open loop at `rate` requests/s for `duration_s`, split round-robin over
/// `lanes` threads: request j is due at start + j / rate and is sent by
/// lane j % lanes, which waits for its answer before its next request.
/// `send(lane, j)` performs request j and returns whether it succeeded.
/// Requests are timed from their due time, so a stall also delays (and is
/// charged to) the requests queued behind it.
std::vector<Sample> RunOpenLoop(double rate, double duration_s, size_t lanes,
                                const std::function<bool(size_t, size_t)>& send);

/// Requests per latency window (see Summarize).
inline constexpr size_t kWindowSamples = 1000;

/// Median over consecutive kWindowSamples-request windows of each
/// window's p50 and p99.
struct WindowedLatency {
  double p50_us = 0.0;
  double p99_us = 0.0;
};
WindowedLatency Windowed(const std::vector<double>& latency_us);

/// Latency (due -> done) and lateness (due -> send) summaries in us.
struct LoopStats {
  double p50_us = 0.0;  ///< see WindowedLatency
  double p99_us = 0.0;  ///< see WindowedLatency
  double late_p99_us = 0.0;
  double goodput = 0.0;  ///< answers per second, first due time to last answer
  uint64_t attempted = 0;
  uint64_t failed = 0;
};
LoopStats Summarize(const std::vector<Sample>& samples);

/// The end-to-end metrics every workload reports with tracing off.
struct EndToEnd {
  double setup_s = 0.0;           ///< median of the set-up rounds
  double qps = 0.0;               ///< answered queries per second
  double recall_at_10 = 0.0;
  double latency_p50_us = 0.0;    ///< per query, from due time to answer
  double bytes_per_vector = 0.0;  ///< Index::memory_bytes() / size()
};
void EmitEndToEnd(const EndToEnd& e, Report* r);

/// The per-layer metrics of a traced run. A layer a workload does not
/// exercise reports 0.
struct Layers {
  /// The end-to-end p99 of the traced run. Host stalls set it on the
  /// 4-vCPU test host, so it carries no regression bound.
  double e2e_latency_p99_us = 0.0;
  double quant_encode_s = 0.0;
  double graph_build_s = 0.0;
  double graph_build_cpu_util = 0.0;
  double api_calibrate_s = 0.0;
  double graph_window = 0.0;
  double graph_search_us = 0.0;
  double graph_dists_per_query = 0.0;
  double graph_hops_per_query = 0.0;
  double rerank_us_per_query = 0.0;
  double simd_ns_per_dist = 0.0;
  double mem_huge_page_share = 0.0;
  double serve_self_p50_us = 0.0;
  double serve_batch_size = 0.0;
  double net_self_p50_us = 0.0;
  double net_bytes_per_request = 0.0;
  double filter_search_us = 0.0;
  double filter_selectivity = 0.0;
  double filter_recall_at_10 = 0.0;
  double dynamic_insert_p50_us = 0.0;
  double dynamic_insert_p99_us = 0.0;
  double dynamic_consolidate_s = 0.0;
  double dynamic_write_ops_per_s = 0.0;
  double loadgen_late_p99_us = 0.0;
  double loadgen_dropped_windows = 0.0;
  double env_steal_share = 0.0;
  double trace_overhead_share = 0.0;
};
void EmitLayers(const Layers& l, Report* r);

}  // namespace perfbench
