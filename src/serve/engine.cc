#include "serve/engine.h"

#include <algorithm>

#include "util/env.h"

namespace blink {

// ---------------------------------------------------------------------------
// ServingEngine.
// ---------------------------------------------------------------------------

ServingEngine::ServingEngine(const SearchIndex* index,
                             const ServingOptions& options)
    : index_(index), opts_(options) {
  if (opts_.num_threads == 0) opts_.num_threads = NumThreads();
  // Degenerate values are rejected with a Status at the configuration
  // boundary (ServingOptions::Validate, called by Index::Serve and the
  // server tools). The clamps below are last-resort defense for direct
  // constructions that skipped Validate — a 0 here would drain empty
  // chunks forever / never admit a query.
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
  searchers_.reserve(opts_.num_threads);
  free_.reserve(opts_.num_threads);
  for (size_t i = 0; i < opts_.num_threads; ++i) {
    searchers_.push_back(index_->MakeSearcher());
    free_.push_back(searchers_.back().get());
  }
}

ServingEngine::~ServingEngine() {
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    stop_ = true;
  }
  capacity_cv_.notify_all();  // blocked Submits resolve kShutdown
  Drain();  // drain tasks finish every query admitted before stop_
  pool_.reset();
}

Searcher* ServingEngine::AcquireSearcher() {
  std::unique_lock<std::mutex> lk(free_mu_);
  free_cv_.wait(lk, [this] { return !free_.empty(); });
  Searcher* s = free_.back();
  free_.pop_back();
  return s;
}

void ServingEngine::ReleaseSearcher(Searcher* s) {
  {
    std::unique_lock<std::mutex> lk(free_mu_);
    free_.push_back(s);
  }
  free_cv_.notify_one();
}

void ServingEngine::SearchBatch(MatrixViewF queries, size_t k,
                                const SearchOptions& params, uint32_t* ids,
                                float* dists, BatchStats* stats) {
  const size_t nq = queries.rows;
  if (nq == 0) return;
  BatchStats total;
  RunBatchSlices(
      nq, searchers_.size(), pool_.get(), &total,
      [&](size_t, size_t lo, size_t hi, BatchStats* slice_stats) {
        Searcher* searcher = AcquireSearcher();
        for (size_t qi = lo; qi < hi; ++qi) {
          searcher->Search(queries.row(qi), k, params, ids + qi * k,
                           dists != nullptr ? dists + qi * k : nullptr,
                           slice_stats);
        }
        ReleaseSearcher(searcher);
      });
  queries_.fetch_add(nq, std::memory_order_relaxed);
  distance_computations_.fetch_add(total.distance_computations,
                                   std::memory_order_relaxed);
  hops_.fetch_add(total.hops, std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->distance_computations += total.distance_computations;
    stats->hops += total.hops;
  }
}

std::future<SearchResult> ServingEngine::Submit(const float* query, size_t k,
                                                const SearchOptions& params) {
  Request req;
  req.query.assign(query, query + index_->dim());
  req.k = k;
  req.params = params;
  std::future<SearchResult> fut = req.promise.get_future();
  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    capacity_cv_.wait(
        lk, [this] { return queue_.size() < opts_.queue_capacity || stop_; });
    if (stop_) {  // engine shutting down: fail fast, contract-shaped
      lk.unlock();
      // Padded like a real answer so result-shape invariants hold, but
      // tagged kShutdown: a zero-hit answer and a never-ran query used to
      // be indistinguishable here, which poisoned recall accounting.
      SearchResult empty;
      empty.ids.assign(k, kInvalidId);
      empty.dists.assign(k, kInvalidDist);
      empty.outcome = SearchOutcome::kShutdown;
      req.promise.set_value(std::move(empty));
      Retire(1);
      return fut;
    }
    EnqueueLocked(std::move(req));
  }
  return fut;
}

ServingEngine::SubmitOutcome ServingEngine::TrySubmit(
    const float* query, size_t k, const SearchOptions& params,
    std::future<SearchResult>* out) {
  // Admission bound: queued + executing. (Submit's producer backpressure
  // waits on the queue alone, which drain tasks empty as fast as the
  // searchers allow; an admission decision has to count the work that is
  // already past the queue or the bound is porous under load.)
  for (;;) {
    uint64_t cur = inflight_.load(std::memory_order_relaxed);
    if (cur >= opts_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return SubmitOutcome::kRejectedOverload;
    }
    // Reserve the slot before touching the queue so concurrent TrySubmits
    // cannot overshoot the capacity between check and enqueue.
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
  Request req;
  req.query.assign(query, query + index_->dim());
  req.k = k;
  req.params = params;
  std::future<SearchResult> fut = req.promise.get_future();
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    if (stop_) {
      lk.unlock();
      // Roll the reservation back — the caller gets the rejection, not a
      // future.
      Retire(1);
      return SubmitOutcome::kRejectedShutdown;
    }
    EnqueueLocked(std::move(req));
  }
  *out = std::move(fut);
  return SubmitOutcome::kAccepted;
}

size_t ServingEngine::queue_depth() const {
  std::unique_lock<std::mutex> lk(queue_mu_);
  return queue_.size();
}

void ServingEngine::EnqueueLocked(Request req) {
  queue_.push_back(std::move(req));
  // Each running drain task looks at the queue again before it returns, so
  // a new one is needed only while some searcher has none. Posting under
  // queue_mu_ orders every post before the destructor's stop_.
  if (active_drains_ < searchers_.size()) {
    ++active_drains_;
    pool_->Submit([this] { DrainQueue(); });
  }
}

void ServingEngine::DrainQueue() {
  const size_t searchers = searchers_.size();
  std::vector<Request> chunk;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      if (queue_.empty()) {
        --active_drains_;
        return;
      }
      // A fair share spreads a backlog over every searcher.
      const size_t take = std::min(
          opts_.max_batch, (queue_.size() + searchers - 1) / searchers);
      for (size_t i = 0; i < take; ++i) {
        chunk.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    capacity_cv_.notify_all();
    batches_.fetch_add(1, std::memory_order_relaxed);
    ProcessBatch(chunk);
    chunk.clear();
  }
}

void ServingEngine::ProcessBatch(std::vector<Request>& batch) {
  Searcher* searcher = AcquireSearcher();
  std::vector<SearchResult> results(batch.size());
  BatchStats stats;
  for (size_t i = 0; i < batch.size(); ++i) {
    SearchResult& res = results[i];
    res.ids.resize(batch[i].k);
    res.dists.resize(batch[i].k);
    BatchStats qs;
    searcher->Search(batch[i].query.data(), batch[i].k, batch[i].params,
                     res.ids.data(), res.dists.data(), &qs);
    res.distance_computations = qs.distance_computations;
    res.hops = qs.hops;
    stats.distance_computations += qs.distance_computations;
    stats.hops += qs.hops;
  }
  ReleaseSearcher(searcher);
  // Counters before promises (a client must see its query counted once its
  // future resolves); promises before the inflight decrement (Drain()
  // guarantees resolved futures).
  queries_.fetch_add(batch.size(), std::memory_order_relaxed);
  distance_computations_.fetch_add(stats.distance_computations,
                                   std::memory_order_relaxed);
  hops_.fetch_add(stats.hops, std::memory_order_relaxed);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(results[i]));
  }
  Retire(batch.size());
}

void ServingEngine::Retire(uint64_t n) {
  // A concurrent Drain() waiting on the last of these must be woken.
  if (inflight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::unique_lock<std::mutex> lk(drain_mu_);
    drain_cv_.notify_all();
  }
}

void ServingEngine::Drain() {
  std::unique_lock<std::mutex> lk(drain_mu_);
  drain_cv_.wait(lk, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

ServingCounters ServingEngine::counters() const {
  ServingCounters c;
  c.queries = queries_.load(std::memory_order_relaxed);
  c.batches = batches_.load(std::memory_order_relaxed);
  c.distance_computations =
      distance_computations_.load(std::memory_order_relaxed);
  c.hops = hops_.load(std::memory_order_relaxed);
  c.rejected = rejected_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace blink
