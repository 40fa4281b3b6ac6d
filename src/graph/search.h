// Greedy graph search (paper Algorithm 1) with the Sec. 5 optimizations:
// sorted linear buffer, software prefetching with tunable
// (prefetch-offset, prefetch-step), optional visited set, and a final
// two-level re-ranking gather when the storage has compressed residuals
// (Sec. 3.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "filter/metadata.h"
#include "graph/graph.h"
#include "graph/reranker.h"
#include "graph/search_buffer.h"

namespace blink {

/// Runtime knobs of one search. The window W trades accuracy for speed;
/// the prefetch pair reproduces Fig. 7(a); `use_visited_set` reproduces the
/// Sec. 5 visited-set ablation.
struct SearchParams {
  uint32_t window = 32;          ///< W: candidate-queue capacity (>= k)
  uint32_t prefetch_offset = 0;  ///< lookahead offset into the neighbor list
  uint32_t prefetch_step = 2;    ///< vectors prefetched per iteration
  /// Track visited ids (Sec. 5 ablation). The paper disables its
  /// associative visited structure for small d; our epoch-stamped array is
  /// cheap enough that keeping it on measures faster on this substrate
  /// (see bench/ablation_search_opts and EXPERIMENTS.md), so on is the
  /// default. The knob reproduces the paper's ablation either way.
  bool use_visited_set = true;
  bool rerank = true;            ///< use the second level when available
  /// Re-rank depth: candidates re-scored at full two-level precision before
  /// the top-k selection. 0 = all W candidates (the historical behavior);
  /// otherwise clamped into [k, W]. Only meaningful when `rerank` is set
  /// and the storage has a second level.
  uint32_t rerank_window = 0;
  /// Metadata predicate restricting results (null = unfiltered); see
  /// DESIGN.md D15. The view must outlive the search call.
  const FilterView* filter = nullptr;
  /// With a filter set: true = in-search push-down (failing vertices are
  /// excluded from the result set per candidate but still traversed,
  /// filtered-Vamana style); false = post-filter (failing vertices are
  /// dropped at extraction, callers widen the window adaptively).
  bool filter_push_down = false;
};

/// Disposition of one served query. Search paths always produce kOk; the
/// serving layer uses the other values so a rejected or shutdown-raced
/// query is distinguishable from a real zero-hit answer (which is kOk with
/// all-padded ids). Checked by the loadgen/recall accounting in
/// tools/blink_serve and mapped onto wire status codes by src/net/.
enum class SearchOutcome : uint8_t {
  kOk = 0,        ///< the query ran; ids/dists are a real answer
  kRejected = 1,  ///< admission control refused it (queue at capacity)
  kShutdown = 2,  ///< the engine was stopping; the query never ran
};

struct SearchResult {
  std::vector<uint32_t> ids;
  std::vector<float> dists;
  size_t distance_computations = 0;
  size_t hops = 0;  ///< nodes expanded
  SearchOutcome outcome = SearchOutcome::kOk;
};

/// Reusable single-query searcher over one (graph, storage) pair. Not
/// thread-safe; create one per worker thread (batch parallelism is across
/// queries, as in the paper).
template <typename Storage>
class GreedySearcher {
 public:
  GreedySearcher(const FlatGraph* graph, const Storage* storage)
      : graph_(graph), storage_(storage), scratch_(storage->dim()) {}

  /// Runs Algorithm 1 from `entry_point`, returning the k best candidates.
  void Search(const float* query, size_t k, uint32_t entry_point,
              const SearchParams& params, SearchResult* out) {
    const uint32_t window = std::max<uint32_t>(params.window, k);
    buffer_.Reset(window);
    // In-search push-down keeps a second sorted buffer holding only
    // predicate-passing candidates: the traversal (buffer_) still routes
    // through failing vertices so connectivity is preserved, while the
    // result set is drawn from passing_ at extraction.
    const bool push_down =
        params.filter != nullptr && params.filter_push_down;
    if (push_down) passing_.Reset(window);
    storage_->PrepareQuery(query, &query_state_);
    if (params.use_visited_set) {
      EnsureVisitedCapacity();
      visited_.NextQuery();
    }
    out->distance_computations = 0;
    out->hops = 0;

    const float d0 = storage_->Distance(query_state_, entry_point);
    ++out->distance_computations;
    buffer_.Insert(d0, entry_point);
    if (push_down && params.filter->Pass(entry_point)) {
      passing_.Insert(d0, entry_point);
    }
    if (params.use_visited_set) visited_.CheckAndMark(entry_point);

    // Safety bound: without a visited set a node can be re-expanded after
    // buffer eviction; convergence is monotone but we cap hops anyway.
    const size_t max_hops = 64 * static_cast<size_t>(window) + 256;

    long idx;
    while ((idx = buffer_.NextUnexplored()) >= 0 && out->hops < max_hops) {
      const uint32_t node = buffer_[static_cast<size_t>(idx)].id;
      buffer_.MarkExplored(static_cast<size_t>(idx));
      ++out->hops;

      const uint32_t* nbrs = graph_->neighbors(node);
      const uint32_t deg = graph_->degree(node);

      // Software prefetch schedule (Sec. 5): keep the prefetch pointer
      // `offset + step` vectors ahead of the compute pointer. step==0 and
      // offset==0 disables prefetching entirely.
      const uint32_t lookahead = params.prefetch_offset + params.prefetch_step;

      // Next-hop prefetch: NextUnexplored() is an idempotent cursor peek,
      // so the likely next expansion is known now — issue its adjacency
      // row and vector fetch to overlap with this node's distance
      // computations. On a mapped (out-of-core) index this is what turns a
      // cold page fault into work hidden behind compute; on a resident
      // index it is an ordinary cache-line prefetch. An Insert below can
      // still supersede the peeked candidate — the prefetch is then merely
      // wasted, never wrong.
      if (lookahead > 0) {
        const long next = buffer_.NextUnexplored();
        if (next >= 0) {
          const uint32_t next_node = buffer_[static_cast<size_t>(next)].id;
          graph_->PrefetchAdjacency(next_node);
          storage_->Prefetch(next_node);
        }
      }
      uint32_t pf = 0;
      if (lookahead > 0) {
        const uint32_t warm = std::min(deg, lookahead);
        for (; pf < warm; ++pf) storage_->Prefetch(nbrs[pf]);
      }
      for (uint32_t t = 0; t < deg; ++t) {
        if (lookahead > 0) {
          const uint32_t target = std::min(deg, t + 1 + lookahead);
          for (; pf < target; ++pf) storage_->Prefetch(nbrs[pf]);
        }
        const uint32_t cand = nbrs[t];
        if (params.use_visited_set && !visited_.CheckAndMark(cand)) continue;
        const float d = storage_->Distance(query_state_, cand);
        ++out->distance_computations;
        buffer_.Insert(d, cand);
        if (push_down && params.filter->Pass(cand)) passing_.Insert(d, cand);
      }
    }

    ExtractTopK(k, params, out);
  }

  /// Accumulated candidates of the last search (ids in ascending-distance
  /// order); used by the graph builder as the pruning candidate pool.
  const SearchBuffer& buffer() const { return buffer_; }

  const typename Storage::Query& query_state() const { return query_state_; }

 private:
  void EnsureVisitedCapacity() {
    if (visited_capacity_ != storage_->size()) {
      visited_.Resize(storage_->size());
      visited_capacity_ = storage_->size();
    }
  }

  /// Selects the k results. With a second level present and rerank enabled,
  /// re-scores the top `rerank_window` candidates (all W when 0) through the
  /// shared Reranker seam (graph/reranker.h) first. The buffer is sorted by
  /// primary distance, so a partial depth re-ranks the most promising
  /// prefix.
  void ExtractTopK(size_t k, const SearchParams& params, SearchResult* out) {
    if (params.filter != nullptr) {
      ExtractTopKFiltered(k, params, out);
      return;
    }
    const size_t m = RerankDepth(buffer_.size(), k, params.rerank_window);
    const size_t kk = std::min(k, m);
    if (params.rerank && storage_->has_second_level() && m > 0) {
      RescoreCandidates(*storage_, query_state_, buffer_, m,
                        /*sorted_prefix=*/kk, scratch_.data(), &rerank_);
      EmitRescored(
          rerank_, kk, [](uint32_t) { return false; }, &out->ids, &out->dists);
      return;
    }
    out->ids.resize(kk);
    out->dists.resize(kk);
    for (size_t i = 0; i < kk; ++i) {
      out->ids[i] = buffer_[i].id;
      out->dists[i] = buffer_[i].dist;
    }
  }

  /// Filtered selection. Survivors come from the passing_ buffer (push-down:
  /// already predicate-gated) or from filtering buffer_ (post-filter), and
  /// only those survivors enter the two-level re-score — the re-rank
  /// epilogue never spends FullDistance gathers on failing candidates.
  void ExtractTopKFiltered(size_t k, const SearchParams& params,
                           SearchResult* out) {
    survivors_.clear();
    if (params.filter_push_down) {
      for (size_t i = 0; i < passing_.size(); ++i) {
        survivors_.push_back(passing_[i]);
      }
    } else {
      for (size_t i = 0; i < buffer_.size(); ++i) {
        if (params.filter->Pass(buffer_[i].id)) {
          survivors_.push_back(buffer_[i]);
        }
      }
    }
    const size_t m = RerankDepth(survivors_.size(), k, params.rerank_window);
    const size_t kk = std::min(k, m);
    if (params.rerank && storage_->has_second_level() && m > 0) {
      RescoreCandidates(*storage_, query_state_, survivors_, m,
                        /*sorted_prefix=*/kk, scratch_.data(), &rerank_);
      EmitRescored(
          rerank_, kk, [](uint32_t) { return false; }, &out->ids, &out->dists);
      return;
    }
    out->ids.resize(kk);
    out->dists.resize(kk);
    for (size_t i = 0; i < kk; ++i) {
      out->ids[i] = survivors_[i].id;
      out->dists[i] = survivors_[i].dist;
    }
  }

  const FlatGraph* graph_;
  const Storage* storage_;
  SearchBuffer buffer_;
  SearchBuffer passing_;  ///< predicate-passing results (push-down mode)
  typename Storage::Query query_state_;
  VisitedSet visited_;
  size_t visited_capacity_ = 0;
  std::vector<float> scratch_;
  std::vector<std::pair<float, uint32_t>> rerank_;
  std::vector<SearchBuffer::Entry> survivors_;  ///< filtered extraction pool
};

/// Adaptive widening loop shared by every filtered search path and by the
/// dynamic index's reads: runs `run(window, out)` with geometrically
/// growing windows until the result holds k entries (out->ids, pre-padding)
/// or the window reaches `widen_cap()` (see ResolveWidenCap in
/// filter/metadata.h). The cap is a callable, re-read after every short
/// run, so a ceiling that grows during the search (the dynamic index's
/// tombstone count under a concurrent Delete) is honored. Work counters
/// accumulate across retries so QPS/work accounting reflects total cost.
template <typename CapFn, typename RunFn>
void RunWidened(size_t k, uint32_t window0, CapFn&& widen_cap, RunFn&& run,
                SearchResult* out) {
  size_t dc = 0;
  size_t hops = 0;
  uint32_t w = std::max<uint32_t>(window0, 1);
  for (;;) {
    run(w, out);
    dc += out->distance_computations;
    hops += out->hops;
    if (out->ids.size() >= k) break;
    const uint32_t cap = widen_cap();
    if (w >= cap) break;
    w = static_cast<uint32_t>(std::min<uint64_t>(cap, uint64_t{w} * 2));
  }
  out->distance_computations = dc;
  out->hops = hops;
}

}  // namespace blink
