// Shared test scaffolding (ISSUE 3 satellite): the dataset / ground-truth /
// build boilerplate that used to be re-declared in every test_*.cc, plus
// temp-file management for serialization tests.
//
// Everything is deterministic given the seed, and sized for unit tests
// (seconds, not minutes, even in Debug).
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "data/groundtruth.h"
#include "data/synthetic.h"
#include "eval/interface.h"
#include "eval/metrics.h"
#include "graph/index.h"

namespace blink {
namespace testutil {

/// Seeded synthetic dataset + exact ground truth + small-graph build
/// params — the standard fixture of the index-level tests.
struct Fixture {
  Dataset data;
  Matrix<uint32_t> gt;
  VamanaBuildParams bp;
  size_t k;

  explicit Fixture(Dataset d, size_t k = 10, uint32_t R = 24, uint32_t W = 48)
      : data(std::move(d)), k(k) {
    gt = ComputeGroundTruth(data.base, data.queries, k, data.metric);
    bp.graph_max_degree = R;
    bp.window_size = W;
    bp.alpha = data.metric == Metric::kL2 ? 1.2f : 0.95f;
  }
};

/// The most common configuration: a deep-like dataset with k=10 ground
/// truth and an R=24 / W=48 build.
inline Fixture DeepFixture(size_t n, size_t nq, uint64_t seed, size_t k = 10,
                           uint32_t R = 24, uint32_t W = 48) {
  return Fixture(MakeDeepLike(n, nq, seed), k, R, W);
}

/// Mean recall@k of `idx` over the fixture's queries with explicit params.
inline double RecallOf(const SearchIndex& idx, const Fixture& f,
                       const RuntimeParams& p) {
  Matrix<uint32_t> ids(f.data.queries.rows(), f.k);
  idx.SearchBatch(f.data.queries, f.k, p, ids.data());
  return MeanRecallAtK(ids, f.gt, f.k);
}

/// Window-sweep shorthand used by most graph-index tests.
inline double RecallAtWindow(const SearchIndex& idx, const Fixture& f,
                             uint32_t window, bool rerank = true,
                             bool use_visited_set = false) {
  RuntimeParams p;
  p.window = window;
  p.rerank = rerank;
  p.use_visited_set = use_visited_set;
  return RecallOf(idx, f, p);
}

/// A corpus smaller than the typical k, with a built float32 index: the
/// padding-contract fixture (every path must pad to exactly k).
struct TinyWorld {
  Dataset data;
  std::unique_ptr<VamanaIndex<FloatStorage>> index;

  explicit TinyWorld(size_t corpus = 5, size_t nq = 4, uint64_t seed = 99)
      : data(MakeDeepLike(corpus, nq, seed)) {
    VamanaBuildParams bp;
    bp.graph_max_degree = 4;
    bp.window_size = 8;
    index = BuildVamanaF32(data.base, data.metric, bp);
  }
};

/// gtest fixture owning temp files/directories; everything registered via
/// Path()/DirPath() is removed in TearDown (files by remove, directories
/// recursively).
class TempPathTest : public ::testing::Test {
 protected:
  /// A fresh temp file path (not created), removed on teardown.
  std::string Path(const std::string& name) {
    const std::string p = testing::TempDir() + "blink_test_" + name;
    files_.push_back(p);
    return p;
  }

  /// A fresh temp directory path (not created), removed recursively.
  std::string DirPath(const std::string& name) {
    const std::string p = testing::TempDir() + "blink_test_" + name;
    dirs_.push_back(p);
    return p;
  }

  void TearDown() override {
    for (const auto& p : files_) std::remove(p.c_str());
    std::error_code ec;
    for (const auto& p : dirs_) std::filesystem::remove_all(p, ec);
  }

 private:
  std::vector<std::string> files_;
  std::vector<std::string> dirs_;
};

/// Asserts the eval/interface.h padding contract on one result row: valid
/// entries (id < corpus, finite dist when given) form a prefix of exactly
/// `corpus` entries, and every slot after it holds kInvalidId / +inf.
inline void ExpectPaddedRow(const uint32_t* ids, const float* dists, size_t k,
                            size_t corpus) {
  size_t real = 0;
  for (size_t j = 0; j < k; ++j) {
    if (ids[j] != kInvalidId) {
      EXPECT_LT(ids[j], corpus);
      if (dists != nullptr) {
        EXPECT_TRUE(std::isfinite(dists[j])) << j;
      }
      EXPECT_EQ(real, j) << "padding must be a suffix";
      ++real;
    } else if (dists != nullptr) {
      EXPECT_TRUE(std::isinf(dists[j])) << "dist " << j;
    }
  }
  EXPECT_EQ(real, corpus) << "all reachable results present before padding";
}

/// Asserts two id matrices are element-wise identical (byte-identical
/// results, the serialization round-trip bar).
inline void ExpectSameIds(const Matrix<uint32_t>& a, const Matrix<uint32_t>& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " at flat index " << i;
  }
}

/// One batch search into a freshly allocated id matrix.
inline Matrix<uint32_t> SearchIds(const SearchIndex& idx, MatrixViewF queries,
                                  size_t k, const RuntimeParams& p,
                                  ThreadPool* pool = nullptr) {
  Matrix<uint32_t> ids(queries.rows, k);
  idx.SearchBatch(queries, k, p, ids.data(), pool);
  return ids;
}

/// A SearchIndex stub whose SearchBatch parks inside the search until the
/// gate opens — the deterministic way to hold async queries "executing"
/// while a test probes admission control, shutdown or queue draining. With
/// `block_first_only`, only the first query ever parks; the rest answer
/// immediately (the shutdown test needs later queries to resolve while the
/// first pins the engine's in-flight count). Every answer is id 0 at
/// distance 0, padded to k.
class GateIndex : public SearchIndex {
 public:
  explicit GateIndex(size_t dim, bool block_first_only = false)
      : dim_(dim), block_first_only_(block_first_only) {}

  std::string name() const override { return "gate-stub"; }
  size_t size() const override { return 1; }
  size_t dim() const override { return dim_; }
  size_t memory_bytes() const override { return sizeof(*this); }

  void SearchBatch(MatrixViewF queries, size_t k, const SearchOptions&,
                   uint32_t* ids, ThreadPool* = nullptr) const override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      const uint64_t ticket = entered_++;
      entered_cv_.notify_all();
      if (!block_first_only_ || ticket == 0) {
        gate_cv_.wait(lk, [&] { return open_; });
      }
    }
    const uint32_t hit = 0;
    const float dist = 0.0f;
    for (size_t qi = 0; qi < queries.rows; ++qi) {
      WritePaddedRow(&hit, &dist, 1, k, ids + qi * k, nullptr);
    }
  }

  /// Blocks until `n` queries have entered SearchBatch.
  void WaitEntered(uint64_t n) const {
    std::unique_lock<std::mutex> lk(mu_);
    entered_cv_.wait(lk, [&] { return entered_ >= n; });
  }

  void OpenGate() const {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    gate_cv_.notify_all();
  }

 private:
  size_t dim_;
  bool block_first_only_;
  // mutable: SearchBatch is const on the SearchIndex seam.
  mutable std::mutex mu_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable gate_cv_;
  mutable uint64_t entered_ = 0;
  mutable bool open_ = false;
};

}  // namespace testutil
}  // namespace blink
