#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>

#include "api/calibrate.h"
#include "data/groundtruth.h"
#include "data/synthetic.h"
#include "graph/index.h"
#include "util/prng.h"
#include "workloads.h"

namespace perfbench {

using blink::MatrixViewF;

LaneLogs MakeLaneLogs(Tracer* tracer, size_t lanes) {
  LaneLogs logs;
  for (size_t l = 0; l < lanes; ++l) {
    logs.push_back(std::make_unique<SpanLog>(tracer));
  }
  return logs;
}

void WriteTrace(const Tracer& tracer, const Args& args) {
  const std::string path = args.trace_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + ".spans.jsonl";
  if (tracer.Write(path)) {
    Log("spans written to %s", path.c_str());
  } else {
    Log("could not write spans to %s", path.c_str());
  }
}

size_t Scaled(const Args& args, size_t nominal, size_t floor_n) {
  const auto n = static_cast<size_t>(static_cast<double>(nominal) * args.scale);
  return std::max(n, floor_n);
}

namespace {

// The deep-96-like mixture (cluster centres, per-dimension offsets and
// scales) is drawn from this fixed seed. Drawn from --seed instead, the
// mixture's difficulty changed from seed to seed: at one search window,
// recall ran from 0.91 to 0.95 and qps by 17% over seeds 1-5.
constexpr uint64_t kMixtureSeed = 1234;
/// Pool rows drawn from the mixture per input row needed.
constexpr size_t kPoolFactor = 4;

}  // namespace

Inputs MakeInputs(size_t n, size_t n_cal, size_t n_eval, size_t gt_rows,
                  uint64_t seed, blink::ThreadPool* pool) {
  // One mixture for every seed, sampled kPoolFactor times over; --seed
  // picks which of the pool's rows become base rows, calibration and
  // evaluation queries (a partial Fisher-Yates shuffle).
  const size_t total = n + n_cal + n_eval;
  const blink::Dataset pool_ds =
      blink::MakeDeepLike(kPoolFactor * total, 1, kMixtureSeed);
  std::vector<size_t> order(pool_ds.base.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  blink::Rng rng(seed);
  for (size_t i = 0; i < total; ++i) {
    std::swap(order[i], order[i + rng.Bounded(order.size() - i)]);
  }
  const size_t d = pool_ds.base.cols();
  const auto take = [&](size_t lo, size_t hi) {
    blink::MatrixF out(hi - lo, d);
    for (size_t i = lo; i < hi; ++i) {
      std::copy(pool_ds.base.row(order[i]), pool_ds.base.row(order[i]) + d,
                out.row(i - lo));
    }
    return out;
  };
  Inputs in;
  in.base = take(0, n);
  in.cal = take(n, n + n_cal);
  in.eval = take(n + n_cal, total);
  const MatrixViewF truth_base(in.base.data(), gt_rows, in.base.cols());
  in.gt_cal = blink::ComputeGroundTruth(truth_base, in.cal, kK,
                                        blink::Metric::kL2, pool);
  in.gt_eval = blink::ComputeGroundTruth(truth_base, in.eval, kK,
                                         blink::Metric::kL2, pool);
  return in;
}

blink::Index BuildOrDie(const blink::IndexSpec& spec, MatrixViewF data,
                        blink::ThreadPool* pool, double* huge_bytes) {
  const double huge0 = AnonHugePageBytes();
  blink::Result<blink::Index> built = blink::Build(spec, data, pool);
  if (!built.ok()) {
    Log("build failed: %s", built.status().ToString().c_str());
    std::exit(2);
  }
  *huge_bytes = AnonHugePageBytes() - huge0;
  return std::move(built).value();
}

void TimeEncodeAndGraph(const blink::IndexSpec& spec, MatrixViewF data,
                        blink::ThreadPool* pool, SpanLog* log, uint64_t parent,
                        Layers* layers) {
  const int64_t t0 = NowNs();
  const uint64_t enc = log->Begin("quant.encode", parent);
  blink::LvqStorage storage =
      spec.bits2 > 0
          ? blink::LvqStorage(data, spec.metric, spec.bits1, spec.bits2,
                              /*padding=*/32, pool)
          : blink::LvqStorage(data, spec.metric, spec.bits1, /*padding=*/32,
                              pool);
  log->End(enc);
  const int64_t t1 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t bld = log->Begin("graph.build", parent);
  const blink::VamanaIndex<blink::LvqStorage> graph(
      std::move(storage), spec.Resolved().graph, pool);
  log->End(bld);
  const int64_t t2 = NowNs();
  layers->quant_encode_s = Seconds(t1 - t0);
  layers->graph_build_s = Seconds(t2 - t1);
  layers->graph_build_cpu_util =
      (ProcessCpuSeconds() - cpu0) / layers->graph_build_s;
}

blink::SearchOptions CalibrateOrDie(const blink::Index& index,
                                    const Inputs& in, blink::ThreadPool* pool) {
  blink::CalibrationTarget target;
  target.target_recall = kTargetRecall;
  target.sample_queries = in.cal;
  target.groundtruth = &in.gt_cal;
  target.k = kK;
  target.pool = pool;
  blink::Result<blink::SearchOptions> opts = index.Calibrate(target);
  if (!opts.ok()) {
    Log("calibration failed: %s", opts.status().ToString().c_str());
    std::exit(2);
  }
  return opts.value();
}

double SearcherP50Us(const blink::Index& index, MatrixViewF queries,
                     const blink::SearchOptions& opts, size_t rounds) {
  std::unique_ptr<blink::Searcher> searcher = index.MakeSearcher();
  std::vector<uint32_t> ids(kK);
  std::vector<float> dists(kK);
  std::vector<double> us;
  us.reserve(rounds * queries.rows);
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t q = 0; q < queries.rows; ++q) {
      const int64_t t0 = NowNs();
      searcher->Search(queries.row(q), kK, opts, ids.data(), dists.data(),
                       nullptr);
      us.push_back(Micros(NowNs() - t0));
    }
  }
  return Median(std::move(us));
}

double StaticLvqNsPerDistance(const blink::Index& index, MatrixViewF queries,
                              uint64_t seed) {
  const auto* vamana = dynamic_cast<const blink::VamanaIndex<blink::LvqStorage>*>(
      &index.AsSearchIndex());
  if (vamana == nullptr) return 0.0;
  const blink::LvqStorage& storage = vamana->storage();
  blink::Rng rng(seed);
  std::vector<uint32_t> ids(1 << 16);
  for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.Bounded(storage.size()));
  blink::LvqStorage::Query query;
  double sink = 0.0;
  size_t count = 0;
  const int64_t t0 = NowNs();
  for (size_t q = 0; q < std::min<size_t>(queries.rows, 16); ++q) {
    storage.PrepareQuery(queries.row(q), &query);
    for (uint32_t id : ids) sink += storage.Distance(query, id);
    count += ids.size();
  }
  const int64_t t1 = NowNs();
  if (!std::isfinite(sink)) Log("non-finite distance sum");
  return static_cast<double>(t1 - t0) / static_cast<double>(count);
}

std::vector<Sample> RunOpenLoop(double rate, double duration_s, size_t lanes,
                                const std::function<bool(size_t, size_t)>& send) {
  const auto total = static_cast<size_t>(rate * duration_s);
  std::vector<Sample> samples(total);
  const double period_ns = 1e9 / rate;
  // Start a little in the future so every lane is parked before the first
  // request is due.
  const int64_t start = NowNs() + 20'000'000;
  std::vector<std::thread> threads;
  threads.reserve(lanes);
  for (size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      MinimizeTimerSlack();
      for (size_t j = lane; j < total; j += lanes) {
        Sample& s = samples[j];
        s.due_ns = start + static_cast<int64_t>(static_cast<double>(j) * period_ns);
        WaitUntil(s.due_ns);
        s.send_ns = NowNs();
        s.ok = send(lane, j);
        s.done_ns = NowNs();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

WindowedLatency Windowed(const std::vector<double>& latency_us) {
  // Percentiles per window of kWindowSamples consecutive requests, then the
  // median across windows: a host stall shorter than half the run moves a
  // few windows, not the reported figure. Each window keeps ten samples
  // beyond its p99.
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (size_t lo = 0; lo + kWindowSamples <= latency_us.size();
       lo += kWindowSamples) {
    const auto first = latency_us.begin() + static_cast<std::ptrdiff_t>(lo);
    const std::vector<double> win(first, first + kWindowSamples);
    p50s.push_back(Percentile(win, 50.0));
    p99s.push_back(Percentile(win, 99.0));
  }
  if (p50s.empty()) {  // too few samples for one window
    p50s.push_back(Percentile(latency_us, 50.0));
    p99s.push_back(Percentile(latency_us, 99.0));
  }
  return {Median(std::move(p50s)), Median(std::move(p99s))};
}

LoopStats Summarize(const std::vector<Sample>& samples) {
  LoopStats st;
  std::vector<double> latency;
  std::vector<double> late;
  latency.reserve(samples.size());
  late.reserve(samples.size());
  const int64_t first_due = samples.empty() ? 0 : samples.front().due_ns;
  int64_t last_done = first_due;
  uint64_t ok = 0;
  for (const Sample& s : samples) {
    ++st.attempted;
    late.push_back(Micros(s.send_ns - s.due_ns));
    last_done = std::max(last_done, s.done_ns);
    if (!s.ok) {
      // A failed request misses every latency limit.
      ++st.failed;
      latency.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++ok;
    latency.push_back(Micros(s.done_ns - s.due_ns));
  }
  const WindowedLatency w = Windowed(latency);
  st.p50_us = w.p50_us;
  st.p99_us = w.p99_us;
  st.late_p99_us = Percentile(std::move(late), 99.0);
  // Answers per second from the first due time to the last answer: the
  // offered rate while the system keeps up, less when it falls behind.
  st.goodput = static_cast<double>(ok) /
               std::max(1e-9, Seconds(last_done - first_due));
  return st;
}

void EmitEndToEnd(const EndToEnd& e, Report* r) {
  r->Set("setup_s", e.setup_s, "s");
  r->Set("qps", e.qps, "1/s");
  r->Set("recall_at_10", e.recall_at_10, "fraction");
  r->Set("latency_p50_us", e.latency_p50_us, "us");
  r->Set("bytes_per_vector", e.bytes_per_vector, "B");
}

void EmitLayers(const Layers& l, Report* r) {
  r->Set("e2e.latency_p99_us", l.e2e_latency_p99_us, "us");
  r->Set("quant.encode_s", l.quant_encode_s, "s");
  r->Set("graph.build_s", l.graph_build_s, "s");
  r->Set("graph.build_cpu_util", l.graph_build_cpu_util, "cores");
  r->Set("api.calibrate_s", l.api_calibrate_s, "s");
  r->Set("graph.window", l.graph_window, "count");
  r->Set("graph.search_us", l.graph_search_us, "us");
  r->Set("graph.dists_per_query", l.graph_dists_per_query, "count");
  r->Set("graph.hops_per_query", l.graph_hops_per_query, "count");
  r->Set("rerank.us_per_query", l.rerank_us_per_query, "us");
  r->Set("simd.ns_per_dist", l.simd_ns_per_dist, "ns");
  r->Set("mem.huge_page_share", l.mem_huge_page_share, "fraction");
  r->Set("serve.self_p50_us", l.serve_self_p50_us, "us");
  r->Set("serve.batch_size", l.serve_batch_size, "count");
  r->Set("net.self_p50_us", l.net_self_p50_us, "us");
  r->Set("net.bytes_per_request", l.net_bytes_per_request, "B");
  r->Set("filter.search_us", l.filter_search_us, "us");
  r->Set("filter.selectivity", l.filter_selectivity, "fraction");
  r->Set("filter.recall_at_10", l.filter_recall_at_10, "fraction");
  r->Set("dynamic.insert_p50_us", l.dynamic_insert_p50_us, "us");
  r->Set("dynamic.insert_p99_us", l.dynamic_insert_p99_us, "us");
  r->Set("dynamic.consolidate_s", l.dynamic_consolidate_s, "s");
  r->Set("dynamic.write_ops_per_s", l.dynamic_write_ops_per_s, "1/s");
  r->Set("loadgen.late_p99_us", l.loadgen_late_p99_us, "us");
  r->Set("loadgen.dropped_windows", l.loadgen_dropped_windows, "count");
  r->Set("env.steal_share", l.env_steal_share, "fraction");
  r->Set("trace.overhead_share", l.trace_overhead_share, "fraction");
}

}  // namespace perfbench
