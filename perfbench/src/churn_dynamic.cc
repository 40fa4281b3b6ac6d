// churn-dynamic: the mutable LVQ index under a fixed write script (delete
// the oldest live id, insert a held-out vector, consolidate after every
// thousand deletes) while an open loop reads through ServingEngine::Submit.
// Puts insert search and prune, tombstones, consolidation and the epoch
// read guard beside concurrent reads on one graph.
#include <deque>
#include <limits>
#include <thread>

#include "data/groundtruth.h"
#include "graph/dynamic_storage.h"
#include "workloads.h"

namespace perfbench {
namespace {

using blink::Index;
using blink::MatrixViewF;
using blink::SearchOptions;

constexpr double kRate = 500.0;  // reads per second, open loop
constexpr size_t kLanes = 4;  // generator lanes, as in serve-net
constexpr size_t kEngineThreads = 2;
constexpr size_t kConsolidateEvery = 1000;  // deletes between consolidations
constexpr int64_t kForever = std::numeric_limits<int64_t>::max();

/// Reads on the open-loop schedule through the engine (or, for the layer
/// replay, straight into per-lane Searchers); every answer is kept for the
/// checks that run after the writer has stopped.
struct Reads {
  std::vector<Sample> samples;
  std::vector<uint32_t> ids;  // samples.size() x kK
};

Reads EngineReads(blink::ServingEngine* engine, const blink::MatrixF& queries,
                  const SearchOptions& opts, double seconds, LaneLogs& logs) {
  Reads r;
  r.ids.assign(static_cast<size_t>(kRate * seconds) * kK, blink::kInvalidId);
  r.samples = RunOpenLoop(kRate, seconds, kLanes, [&](size_t lane, size_t j) {
    const int64_t t0 = NowNs();
    blink::SearchResult res =
        engine->Submit(queries.row(j % queries.rows()), kK, opts).get();
    logs[lane]->Add("serve.submit", t0, NowNs(), 0, j + 1);
    if (res.outcome != blink::SearchOutcome::kOk || res.ids.size() != kK) {
      return false;
    }
    std::copy(res.ids.begin(), res.ids.end(), r.ids.begin() + j * kK);
    return true;
  });
  return r;
}

Reads SearcherReads(const Index& index, const blink::MatrixF& queries,
                    const SearchOptions& opts, double seconds, LaneLogs& logs) {
  Reads r;
  r.ids.assign(static_cast<size_t>(kRate * seconds) * kK, blink::kInvalidId);
  std::vector<std::unique_ptr<blink::Searcher>> searchers;
  for (size_t l = 0; l < kLanes; ++l) searchers.push_back(index.MakeSearcher());
  r.samples = RunOpenLoop(kRate, seconds, kLanes, [&](size_t lane, size_t j) {
    const int64_t t0 = NowNs();
    searchers[lane]->Search(queries.row(j % queries.rows()), kK, opts,
                            r.ids.data() + j * kK, nullptr, nullptr);
    logs[lane]->Add("graph.search", t0, NowNs(), 0, j + 1);
    return true;
  });
  return r;
}

/// Mean ns of one distance through a dynamic LVQ storage's public
/// PrepareQuery/Distance, over seeded random slots of `base`.
double DynamicLvqNsPerDistance(const blink::MatrixF& base,
                               const blink::MatrixF& queries, uint64_t seed) {
  const size_t m = std::min<size_t>(base.rows(), 8192);
  const MatrixViewF sample(base.data(), m, base.cols());
  blink::DynamicLvqStorage::Options lo;
  lo.mean = blink::DynamicLvqDataset::SampleMean(sample);
  blink::DynamicLvqStorage storage(base.cols(), blink::Metric::kL2, lo);
  storage.Grow(m);
  for (size_t i = 0; i < m; ++i) storage.Set(static_cast<uint32_t>(i), base.row(i));
  blink::Rng rng(seed);
  std::vector<uint32_t> ids(1 << 16);
  for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.Bounded(m));
  blink::DynamicLvqStorage::Query query;
  double sink = 0.0;
  size_t count = 0;
  const int64_t t0 = NowNs();
  for (size_t q = 0; q < std::min<size_t>(queries.rows(), 16); ++q) {
    storage.PrepareQuery(queries.row(q), &query);
    for (uint32_t id : ids) sink += storage.Distance(query, id);
    count += ids.size();
  }
  const int64_t t1 = NowNs();
  if (!(sink == sink)) Log("non-finite distance sum");
  return static_cast<double>(t1 - t0) / static_cast<double>(count);
}

}  // namespace

Report RunChurnDynamic(const Args& args) {
  const size_t n = Scaled(args, 10000, 2000);
  // Deletes (and as many inserts). Sized so the script outlasts the read
  // window on a 4-vCPU host: every timed read runs beside writes.
  const size_t script = Scaled(args, 4000, 400);
  const size_t n_q = Scaled(args, 1000, 200);
  blink::ThreadPool pool(kWorkers);
  // Rows [0, n) are the initial index, rows [n, n + script) the inserts.
  const Inputs in = MakeInputs(n + script, n_q, n_q, n, args.seed, &pool);
  const size_t capacity = n + script;

  blink::IndexSpec spec;
  spec.kind = blink::IndexKind::kDynamicLvq;
  spec.dynamic.initial_capacity = capacity;
  blink::ServingOptions serve_opts;
  serve_opts.num_threads = kEngineThreads;

  Tracer tracer(args.trace);
  SpanLog log(&tracer);
  Report report;
  EndToEnd e2e;
  Layers layers;

  // Set-up: vectors in memory -> calibrated index behind a serving engine.
  const int rounds = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  double huge_built = 0.0;  // huge-page bytes gained across Build
  Index index;
  std::unique_ptr<blink::ServingEngine> engine;
  SearchOptions opts;
  for (int r = 0; r < rounds; ++r) {
    engine.reset();
    index = Index();
    const int64_t t0 = NowNs();
    Scoped setup(&log, "setup");
    {
      Scoped build(&log, "api.build", setup.id());
      index = BuildOrDie(spec, MatrixViewF(in.base.data(), n, in.base.cols()), &pool, &huge_built);
    }
    const int64_t c0 = NowNs();
    {
      Scoped cal(&log, "api.calibrate", setup.id());
      opts = CalibrateOrDie(index, in, &pool);
    }
    layers.api_calibrate_s = Seconds(NowNs() - c0);
    {
      Scoped start(&log, "serve.start", setup.id());
      auto served = index.Serve(serve_opts);
      if (!served.ok()) {
        Log("serve failed: %s", served.status().ToString().c_str());
        std::exit(2);
      }
      engine = std::move(served).value();
    }
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  e2e.setup_s = Median(setup_s);
  Log("churn-dynamic: n=%zu script=%zu window=%u setup=%.3fs", n, script,
      opts.window, e2e.setup_s);

  // Slot bookkeeping. Build inserted row i into slot i. dead[s] lists the
  // intervals during which slot s surely held no live vector: from the
  // return of its Delete to the call of the Insert that reused it.
  std::vector<const float*> slot_row(capacity, nullptr);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> dead(capacity);
  std::deque<uint32_t> order;  // live slots, oldest first
  for (size_t i = 0; i < n; ++i) {
    slot_row[i] = in.base.row(i);
    order.push_back(static_cast<uint32_t>(i));
  }

  Tracer off(false);
  LaneLogs quiet_logs = MakeLaneLogs(&off, kLanes);
  LaneLogs lane_logs = MakeLaneLogs(&tracer, kLanes);
  EngineReads(engine.get(), in.eval, opts, 0.5, quiet_logs);  // warm-up

  const blink::ServingCounters before = engine->counters();
  const CpuTicks ticks0 = ReadCpuTicks();
  uint64_t write_failures = 0;
  double writer_s = 0.0;
  std::vector<double> insert_us;
  insert_us.reserve(script);
  std::thread writer([&] {
    SpanLog wlog(&tracer);
    const size_t every =
        std::max<size_t>(1, static_cast<size_t>(kConsolidateEvery * args.scale));
    const int64_t w0 = NowNs();
    for (size_t i = 0; i < script; ++i) {
      const uint32_t victim = order.front();
      order.pop_front();
      const uint64_t del = wlog.Begin("delete");
      if (!index.Delete(victim).ok()) ++write_failures;
      wlog.End(del);
      dead[victim].push_back({NowNs(), kForever});
      const float* row = in.base.row(n + i);
      const int64_t t0 = NowNs();
      blink::Result<uint32_t> id = index.Insert(row);
      const int64_t t1 = NowNs();
      wlog.Add("insert", t0, t1);
      insert_us.push_back(Micros(t1 - t0));
      if (!id.ok() || id.value() >= capacity) {
        ++write_failures;
      } else {
        const uint32_t s = id.value();
        if (!dead[s].empty() && dead[s].back().second == kForever) {
          dead[s].back().second = t0;
        }
        slot_row[s] = row;
        order.push_back(s);
      }
      if ((i + 1) % every == 0) {
        Scoped c(&wlog, "consolidate");
        if (!index.Consolidate().ok()) ++write_failures;
      }
    }
    writer_s = Seconds(NowNs() - w0);
  });
  const Reads window =
      EngineReads(engine.get(), in.eval, opts, args.seconds,
                  args.trace ? lane_logs : quiet_logs);
  writer.join();
  engine->Drain();
  report.steal_share = StealShare(ticks0, ReadCpuTicks());
  const blink::ServingCounters after = engine->counters();
  const LoopStats ls = Summarize(window.samples);
  Log("churn-dynamic: writer %.3fs for %zu deletes + %zu inserts", writer_s,
      script, script);

  // Checks on the reads: well-formed answers, and no id that was deleted
  // (and not yet reused) for the whole time the read was in flight.
  uint64_t bad = 0;
  for (size_t j = 0; j < window.samples.size(); ++j) {
    const Sample& s = window.samples[j];
    const uint32_t* ids = window.ids.data() + j * kK;
    bool ok = s.ok && ValidAnswer(ids, kK, capacity, kK);
    for (size_t i = 0; i < kK && ok; ++i) {
      for (const auto& [from, to] : dead[ids[i]]) {
        if (from <= s.send_ns && s.done_ns <= to) ok = false;
      }
    }
    if (!ok) ++bad;
  }
  report.attempted = window.samples.size() + 2 * script;

  // Recall on the quiesced index against exact ground truth over the
  // live set.
  std::vector<uint8_t> live(capacity, 0);
  blink::MatrixF live_rows(order.size(), in.base.cols());
  std::vector<uint32_t> live_ids(order.begin(), order.end());
  for (size_t r = 0; r < live_ids.size(); ++r) {
    live[live_ids[r]] = 1;
    std::copy(slot_row[live_ids[r]], slot_row[live_ids[r]] + in.base.cols(),
              live_rows.row(r));
  }
  const blink::Matrix<uint32_t> truth = blink::ComputeGroundTruth(
      live_rows, in.eval, kK, blink::Metric::kL2, &pool);
  std::vector<uint32_t> ids(in.eval.rows() * kK);
  blink::BatchStats stats;
  index.SearchBatchEx(in.eval, kK, opts, ids.data(), nullptr, &stats, &pool);
  double recall_sum = 0.0;
  std::vector<uint32_t> truth_ids(kK);
  for (size_t q = 0; q < in.eval.rows(); ++q) {
    const uint32_t* row = ids.data() + q * kK;
    bool ok = ValidAnswer(row, kK, capacity, kK);
    for (size_t i = 0; i < kK && ok; ++i) ok = live[row[i]] != 0;
    if (!ok) ++bad;
    for (size_t i = 0; i < kK; ++i) truth_ids[i] = live_ids[truth.row(q)[i]];
    recall_sum += RecallAtK(row, truth_ids.data(), kK);
  }
  report.attempted += in.eval.rows();
  if (bad + write_failures > 0) {
    Log("churn-dynamic: %llu answers failed the check, %llu writes failed",
        static_cast<unsigned long long>(bad),
        static_cast<unsigned long long>(write_failures));
    report.Fail(bad + write_failures);
  }

  e2e.qps = ls.goodput;
  e2e.recall_at_10 = recall_sum / static_cast<double>(in.eval.rows());
  e2e.latency_p50_us = ls.p50_us;
  layers.e2e_latency_p99_us = ls.p99_us;
  e2e.bytes_per_vector =
      static_cast<double>(index.memory_bytes()) / static_cast<double>(index.size());
  if (!args.trace) {
    EmitEndToEnd(e2e, &report);
    return report;
  }

  const auto nq = static_cast<double>(in.eval.rows());
  layers.graph_window = opts.window;
  layers.graph_dists_per_query =
      static_cast<double>(stats.distance_computations) / nq;
  layers.graph_hops_per_query = static_cast<double>(stats.hops) / nq;
  layers.graph_search_us = SearcherP50Us(index, in.eval, opts, 2);
  SearchOptions no_rerank = opts;
  no_rerank.rerank = false;
  layers.rerank_us_per_query =
      layers.graph_search_us - SearcherP50Us(index, in.eval, no_rerank, 2);
  layers.simd_ns_per_dist = DynamicLvqNsPerDistance(in.base, in.eval, args.seed);
  layers.mem_huge_page_share =
      huge_built / static_cast<double>(index.memory_bytes());
  layers.serve_batch_size =
      static_cast<double>(after.queries - before.queries) /
      static_cast<double>(std::max<uint64_t>(1, after.batches - before.batches));
  // Serve self time: the same schedule on the quiesced index, at the
  // engine and straight into searchers; the untraced engine replay gives
  // the tracing overhead.
  const double replay_s = args.seconds / 4;
  const Reads plain = EngineReads(engine.get(), in.eval, opts, replay_s, quiet_logs);
  const Reads at_engine = EngineReads(engine.get(), in.eval, opts, replay_s, lane_logs);
  const Reads at_searcher = SearcherReads(index, in.eval, opts, replay_s, lane_logs);
  const double engine_p50 = Summarize(at_engine.samples).p50_us;
  layers.serve_self_p50_us =
      engine_p50 - Summarize(at_searcher.samples).p50_us;
  layers.trace_overhead_share =
      engine_p50 / Summarize(plain.samples).p50_us - 1.0;
  layers.dynamic_insert_p50_us = Percentile(insert_us, 50.0);
  layers.dynamic_insert_p99_us = Percentile(insert_us, 99.0);
  layers.dynamic_write_ops_per_s = static_cast<double>(2 * script) / writer_s;
  layers.loadgen_late_p99_us = ls.late_p99_us;
  layers.env_steal_share = report.steal_share;
  for (const Reads* r : {&plain, &at_engine, &at_searcher}) {
    report.attempted += r->samples.size();
    for (size_t j = 0; j < r->samples.size(); ++j) {
      if (!r->samples[j].ok ||
          !ValidAnswer(r->ids.data() + j * kK, kK, capacity, kK)) {
        report.Fail();
      }
    }
  }
  engine.reset();
  for (auto& l : lane_logs) l->Flush();
  log.Flush();
  layers.dynamic_consolidate_s = tracer.TotalSeconds("consolidate");
  EmitLayers(layers, &report);
  WriteTrace(tracer, args);
  return report;
}

}  // namespace perfbench
