// serve-net: one-level LVQ-8 static index with tag metadata, served by an
// in-process BlinkServer on 127.0.0.1 and driven by an open loop over four
// BlinkClient connections. Every 10th request carries a selective tag
// filter. Small searches make net framing, serve queueing and
// micro-batching, and (at p99) the filter path the dominant costs.
#include <memory>

#include "data/groundtruth.h"
#include "filter/synthetic.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using blink::Index;
using blink::MatrixViewF;
using blink::SearchOptions;

constexpr double kRate = 1000.0;    // requests per second, open loop
// Client connections. Four rather than two keep the loop open when the
// host slows every hand-off: with two blocking connections a 2x slower
// request path already caps throughput near the offered rate.
constexpr size_t kLanes = 4;
constexpr size_t kFilterEvery = 10; // every 10th request is filtered
constexpr size_t kEngineThreads = 2;
constexpr const char* kFilter = "tag:any=7";  // ~0.8% of the rows
// The tag metadata is drawn with a fixed seed, not --seed: the filtered
// searches' cost scales with 1/selectivity, so a per-seed pass count
// (120..181 of 20,000 rows across seeds 0..39) would swing p99 from seed to
// seed. With this seed exactly 156 of 20,000 rows (0.78%) pass.
constexpr uint64_t kTagSeed = 16;
// A timed window in which the host stole more CPU than this is run again.
constexpr double kMaxWindowSteal = 0.05;

/// The answers of one open-loop replay. They are checked and scored after
/// the loop, so no check runs on the clock.
struct Replay {
  size_t first = 0;  // request index of samples[0]
  std::vector<Sample> samples;
  std::vector<uint32_t> ids;             // samples.size() x kK
  std::vector<blink::BatchStats> stats;  // per lane; searcher replay only
  LoopStats loop;
};

/// What the checks found in one replay.
struct Scored {
  double recall = 0.0;           // unfiltered requests
  double filtered_recall = 0.0;  // filtered requests
  uint64_t bad = 0;              // failed or wrong answers
  double dists_per_query = 0.0;
  double hops_per_query = 0.0;
};

struct Fixture {
  const Inputs* in = nullptr;
  const blink::MetadataStore* md = nullptr;
  const blink::Predicate* pred = nullptr;
  const blink::Matrix<uint32_t>* gt_filtered = nullptr;
  size_t n = 0;
  size_t passing = 0;  // rows matching the filter
  SearchOptions plain;
  SearchOptions filtered;

  bool IsFiltered(size_t j) const { return j % kFilterEvery == kFilterEvery - 1; }
  /// Unfiltered request j asks query j mod nq; the filtered ones walk the
  /// query set on their own, so a 10-s run filters on 1,000 distinct
  /// queries rather than the same tenth of them over and over.
  size_t QueryIndex(size_t j) const {
    return (IsFiltered(j) ? j / kFilterEvery : j) % in->eval.rows();
  }
  const float* Query(size_t j) const { return in->eval.row(QueryIndex(j)); }
  const SearchOptions& Options(size_t j) const {
    return IsFiltered(j) ? filtered : plain;
  }

  /// Checks every answer of a replay and scores recall.
  Scored Score(const Replay& r) const {
    Scored sc;
    size_t unfiltered = 0;
    size_t filtered_n = 0;
    for (size_t i = 0; i < r.samples.size(); ++i) {
      const uint32_t* ids = r.ids.data() + i * kK;
      const size_t j = r.first + i;
      const size_t q = QueryIndex(j);
      const bool f = IsFiltered(j);
      bool ok = r.samples[i].ok && ValidAnswer(ids, kK, n, f ? passing : n);
      if (f) {
        for (size_t i = 0; i < kK && ok; ++i) {
          ok = ids[i] == blink::kInvalidId ||
               blink::MatchesPredicate(*md, *pred, ids[i]);
        }
        sc.filtered_recall += RecallAtK(ids, gt_filtered->row(q), kK);
        ++filtered_n;
      } else {
        sc.recall += RecallAtK(ids, in->gt_eval.row(q), kK);
        ++unfiltered;
      }
      if (!ok) ++sc.bad;
    }
    sc.recall /= static_cast<double>(std::max<size_t>(1, unfiltered));
    sc.filtered_recall /= static_cast<double>(std::max<size_t>(1, filtered_n));
    blink::BatchStats total;
    for (const blink::BatchStats& st : r.stats) {
      total.distance_computations += st.distance_computations;
      total.hops += st.hops;
    }
    const auto requests = static_cast<double>(std::max<size_t>(1, r.samples.size()));
    sc.dists_per_query = static_cast<double>(total.distance_computations) / requests;
    sc.hops_per_query = static_cast<double>(total.hops) / requests;
    return sc;
  }
};

/// Runs the open loop over requests first, first + 1, ...; `call(lane, j,
/// ids)` performs request j, writes its k ids and returns whether the call
/// succeeded.
template <typename Call>
Replay Loop(double seconds, size_t first, Call&& call) {
  Replay r;
  r.first = first;
  r.ids.assign(static_cast<size_t>(kRate * seconds) * kK, blink::kInvalidId);
  r.stats.resize(kLanes);
  r.samples = RunOpenLoop(kRate, seconds, kLanes, [&](size_t lane, size_t i) {
    return call(lane, first + i, r.ids.data() + i * kK);
  });
  r.loop = Summarize(r.samples);
  return r;
}

/// The open-loop schedule over the network, one connection per lane.
Replay NetLoop(const Fixture& fx, uint16_t port, double seconds,
               LaneLogs& logs, size_t first = 0) {
  std::vector<blink::net::BlinkClient> clients;
  for (size_t l = 0; l < kLanes; ++l) {
    blink::Result<blink::net::BlinkClient> c =
        blink::net::BlinkClient::Connect("127.0.0.1", port);
    if (!c.ok()) {
      Log("connect failed: %s", c.status().ToString().c_str());
      std::exit(2);
    }
    clients.push_back(std::move(c).value());
  }
  std::vector<blink::net::SearchResponse> resp(kLanes);
  return Loop(seconds, first, [&](size_t lane, size_t j, uint32_t* ids) {
    const int64_t t0 = NowNs();
    const blink::Status st = clients[lane].Search(
        MatrixViewF(fx.Query(j), 1, fx.in->eval.cols()), kK, fx.Options(j),
        &resp[lane]);
    logs[lane]->Add("net.search", t0, NowNs(), 0, j + 1);
    const blink::net::SearchResponse& rs = resp[lane];
    if (!st.ok() || rs.status != blink::net::WireStatus::kOk ||
        rs.num_queries != 1 || rs.ids.size() != kK) {
      return false;
    }
    std::copy(rs.ids.begin(), rs.ids.end(), ids);
    return true;
  });
}

/// The same schedule straight into ServingEngine::Submit.
Replay EngineLoop(const Fixture& fx, blink::ServingEngine* engine,
                  double seconds, LaneLogs& logs) {
  return Loop(seconds, 0, [&](size_t lane, size_t j, uint32_t* ids) {
    const int64_t t0 = NowNs();
    const blink::SearchResult res =
        engine->Submit(fx.Query(j), kK, fx.Options(j)).get();
    logs[lane]->Add("serve.submit", t0, NowNs(), 0, j + 1);
    if (res.outcome != blink::SearchOutcome::kOk || res.ids.size() != kK) {
      return false;
    }
    std::copy(res.ids.begin(), res.ids.end(), ids);
    return true;
  });
}

/// The same schedule straight into Searcher::Search, one searcher a lane.
Replay SearcherLoop(const Fixture& fx, const Index& index, double seconds,
                    LaneLogs& logs) {
  std::vector<std::unique_ptr<blink::Searcher>> searchers;
  for (size_t l = 0; l < kLanes; ++l) searchers.push_back(index.MakeSearcher());
  std::vector<blink::BatchStats> stats(kLanes);
  Replay r = Loop(seconds, 0, [&](size_t lane, size_t j, uint32_t* ids) {
    const int64_t t0 = NowNs();
    searchers[lane]->Search(fx.Query(j), kK, fx.Options(j), ids, nullptr,
                            &stats[lane]);
    logs[lane]->Add("graph.search", t0, NowNs(), 0, j + 1);
    return true;
  });
  r.stats = std::move(stats);
  return r;
}

/// The timed phase: `windows` open-loop windows of kWindowSamples requests
/// over the network. Steal time is host interference the program does not
/// cause, and a burst of it backs the loop up for seconds; a window in
/// which the host stole more than kMaxWindowSteal of the CPU is therefore
/// run again, until `windows` windows are clean or twice the planned time
/// has passed. The least-stolen windows are kept; every window is checked.
struct NetPhase {
  std::vector<Replay> kept;
  std::vector<Replay> dropped;
  double steal = 0.0;  // mean steal share of the kept windows
};

NetPhase SteadyNet(const Fixture& fx, uint16_t port, size_t windows,
                   LaneLogs& logs) {
  const double window_s = static_cast<double>(kWindowSamples) / kRate;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(2.0 * static_cast<double>(windows) * window_s * 1e9);
  std::vector<std::pair<double, Replay>> runs;
  size_t clean = 0;
  while (clean < windows && (runs.size() < windows || NowNs() < deadline)) {
    const CpuTicks t0 = ReadCpuTicks();
    Replay r = NetLoop(fx, port, window_s, logs, runs.size() * kWindowSamples);
    const double steal = StealShare(t0, ReadCpuTicks());
    if (steal <= kMaxWindowSteal) ++clean;
    runs.emplace_back(steal, std::move(r));
  }
  std::stable_sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  NetPhase phase;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i < windows) {
      phase.steal += runs[i].first / static_cast<double>(windows);
      phase.kept.push_back(std::move(runs[i].second));
    } else {
      phase.dropped.push_back(std::move(runs[i].second));
    }
  }
  return phase;
}

double WireBytes(const Fixture& fx, size_t j) {
  blink::net::SearchResponse resp;
  resp.num_queries = 1;
  resp.k = kK;
  resp.ids.assign(kK, 0);
  resp.dists.assign(kK, 0.0f);
  // Each frame is a u32 length prefix plus a u8 type before its payload.
  constexpr size_t kFrameOverhead = 5;
  const size_t req =
      blink::net::EncodeSearchRequest(
          MatrixViewF(fx.Query(j), 1, fx.in->eval.cols()), kK, fx.Options(j))
          .size();
  const size_t res = blink::net::EncodeSearchResponse(resp).size();
  return static_cast<double>(req + res + 2 * kFrameOverhead);
}

}  // namespace

Report RunServeNet(const Args& args) {
  const size_t n = Scaled(args, 20000, 2000);
  const size_t n_q = Scaled(args, 1000, 200);
  blink::ThreadPool pool(kWorkers);
  const Inputs in = MakeInputs(n, n_q, n_q, n, args.seed, &pool);
  auto md = std::make_shared<const blink::MetadataStore>(
      blink::MakeSyntheticMetadata(n, {}, kTagSeed));
  blink::Result<blink::Predicate> parsed = blink::Predicate::Parse(kFilter);
  if (!parsed.ok()) {
    Log("bad filter: %s", parsed.status().ToString().c_str());
    std::exit(2);
  }
  auto pred = std::make_shared<const blink::Predicate>(parsed.value());
  const blink::Matrix<uint32_t> gt_filtered = blink::ComputeFilteredGroundTruth(
      in.base, in.eval, kK, blink::Metric::kL2, *md, *pred, &pool);

  Fixture fx;
  fx.in = &in;
  fx.md = md.get();
  fx.pred = pred.get();
  fx.gt_filtered = &gt_filtered;
  fx.n = n;
  for (size_t i = 0; i < n; ++i) {
    if (blink::MatchesPredicate(*md, *pred, static_cast<uint32_t>(i))) {
      ++fx.passing;
    }
  }

  blink::IndexSpec spec;
  spec.kind = blink::IndexKind::kStaticLvq;
  spec.bits1 = 8;
  spec.bits2 = 0;
  spec.graph.graph_max_degree = 32;
  spec.graph.window_size = 0;  // 2R
  blink::net::ServerOptions server_opts;
  server_opts.serving.num_threads = kEngineThreads;

  Tracer tracer(args.trace);
  SpanLog log(&tracer);
  Report report;
  EndToEnd e2e;
  Layers layers;

  // Set-up: vectors in memory -> calibrated index behind a listening server.
  const int rounds = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  double huge_built = 0.0;  // huge-page bytes gained across Build
  std::unique_ptr<blink::net::BlinkServer> server;
  for (int r = 0; r < rounds; ++r) {
    server.reset();
    const int64_t t0 = NowNs();
    Scoped setup(&log, "setup");
    if (args.trace) {
      TimeEncodeAndGraph(spec, in.base, &pool, &log, setup.id(), &layers);
    }
    Index index;
    {
      Scoped build(&log, "api.build", setup.id());
      index = BuildOrDie(spec, in.base, &pool, &huge_built);
    }
    {
      Scoped attach(&log, "api.attach_metadata", setup.id());
      const blink::Status st = index.AttachMetadata(md);
      if (!st.ok()) {
        Log("attach failed: %s", st.ToString().c_str());
        std::exit(2);
      }
    }
    const int64_t c0 = NowNs();
    {
      Scoped cal(&log, "api.calibrate", setup.id());
      fx.plain = CalibrateOrDie(index, in, &pool);
    }
    layers.api_calibrate_s = Seconds(NowNs() - c0);
    {
      Scoped start(&log, "net.start", setup.id());
      auto started = blink::net::BlinkServer::Start(std::move(index), server_opts);
      if (!started.ok()) {
        Log("server start failed: %s", started.status().ToString().c_str());
        std::exit(2);
      }
      server = std::move(started).value();
    }
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  e2e.setup_s = Median(setup_s);
  fx.filtered = fx.plain;
  fx.filtered.filter = pred;
  const std::shared_ptr<blink::ServingGeneration> gen =
      server->generations().Current();
  const Index& index = gen->index;
  e2e.bytes_per_vector =
      static_cast<double>(index.memory_bytes()) / static_cast<double>(index.size());
  Log("serve-net: n=%zu window=%u passing=%zu setup=%.3fs", n,
      fx.plain.window, fx.passing, e2e.setup_s);

  Tracer off(false);
  LaneLogs quiet_logs = MakeLaneLogs(&off, kLanes);
  LaneLogs lane_logs = MakeLaneLogs(&tracer, kLanes);

  // Warm-up on the real path, then the timed open loop (untraced).
  NetLoop(fx, server->port(), 0.5, quiet_logs);
  const double main_s = args.trace ? args.seconds / 3 : args.seconds;
  const auto windows = std::max<size_t>(
      1, static_cast<size_t>(main_s * kRate / kWindowSamples + 0.5));
  const NetPhase net = SteadyNet(fx, server->port(), windows, quiet_logs);
  report.steal_share = net.steal;

  // Each kept window holds kWindowSamples requests, so its p50/p99 are one
  // latency window; the run reports the median over the kept windows.
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> goodput;
  double recall = 0.0;
  double filtered_recall = 0.0;
  for (const Replay& w : net.kept) {
    const Scored sc = fx.Score(w);
    p50s.push_back(w.loop.p50_us);
    p99s.push_back(w.loop.p99_us);
    goodput.push_back(w.loop.goodput);
    recall += sc.recall / static_cast<double>(net.kept.size());
    filtered_recall += sc.filtered_recall / static_cast<double>(net.kept.size());
  }
  e2e.qps = Median(goodput);
  e2e.recall_at_10 = recall;
  e2e.latency_p50_us = Median(p50s);
  layers.e2e_latency_p99_us = Median(p99s);
  layers.loadgen_late_p99_us = 0.0;
  layers.loadgen_dropped_windows = static_cast<double>(net.dropped.size());
  uint64_t bad = 0;
  for (const std::vector<Replay>* set : {&net.kept, &net.dropped}) {
    for (const Replay& w : *set) {
      report.attempted += w.samples.size();
      bad += fx.Score(w).bad;
      layers.loadgen_late_p99_us =
          std::max(layers.loadgen_late_p99_us, w.loop.late_p99_us);
    }
  }
  if (bad > 0) {
    Log("serve-net: %llu answers failed the check",
        static_cast<unsigned long long>(bad));
    report.Fail(bad);
  }

  if (!args.trace) {
    EmitEndToEnd(e2e, &report);
    return report;
  }

  // Traced: replay the schedule at each layer boundary. Self time of a
  // layer is the difference between successive levels' medians.
  const double replay_s = args.seconds / 3;
  const Replay at_searcher = SearcherLoop(fx, index, replay_s, lane_logs);
  const blink::ServingCounters before = gen->engine->counters();
  const Replay at_engine =
      EngineLoop(fx, gen->engine.get(), replay_s, lane_logs);
  const Replay at_net = NetLoop(fx, server->port(), replay_s, lane_logs);
  const blink::ServingCounters after = gen->engine->counters();
  for (const Replay* r : {&at_searcher, &at_engine, &at_net}) {
    report.attempted += r->samples.size();
    const uint64_t bad = fx.Score(*r).bad;
    if (bad > 0) report.Fail(bad);
  }

  const Scored ss = fx.Score(at_searcher);
  layers.graph_window = fx.plain.window;
  layers.graph_dists_per_query = ss.dists_per_query;
  layers.graph_hops_per_query = ss.hops_per_query;
  layers.graph_search_us = SearcherP50Us(index, in.eval, fx.plain, 2);
  SearchOptions no_rerank = fx.plain;
  no_rerank.rerank = false;
  layers.rerank_us_per_query =
      layers.graph_search_us - SearcherP50Us(index, in.eval, no_rerank, 2);
  layers.simd_ns_per_dist = StaticLvqNsPerDistance(index, in.eval, args.seed);
  layers.mem_huge_page_share =
      huge_built / static_cast<double>(index.memory_bytes());
  layers.serve_self_p50_us = at_engine.loop.p50_us - at_searcher.loop.p50_us;
  layers.serve_batch_size =
      static_cast<double>(after.queries - before.queries) /
      static_cast<double>(std::max<uint64_t>(1, after.batches - before.batches));
  layers.net_self_p50_us = at_net.loop.p50_us - at_engine.loop.p50_us;
  double bytes = 0.0;
  for (size_t j = 0; j < kFilterEvery; ++j) bytes += WireBytes(fx, j);
  layers.net_bytes_per_request = bytes / kFilterEvery;
  layers.filter_search_us = SearcherP50Us(index, in.eval, fx.filtered, 1);
  layers.filter_selectivity =
      static_cast<double>(fx.passing) / static_cast<double>(n);
  layers.filter_recall_at_10 = filtered_recall;
  layers.env_steal_share = report.steal_share;
  layers.trace_overhead_share = at_net.loop.p50_us / e2e.latency_p50_us - 1.0;
  EmitLayers(layers, &report);
  for (auto& l : lane_logs) l->Flush();
  log.Flush();
  WriteTrace(tracer, args);
  return report;
}

}  // namespace perfbench
