#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "core/prepared_graph.h"
#include "datasets/datasets.h"
#include "reduction/reduce.h"
#include "reduction_golden.h"
#include "service/graph_registry.h"
#include "service/prepared_graph_cache.h"
#include "service/query_executor.h"

namespace fairclique {
namespace {

using reduction_golden::GoldenReduction;
using reduction_golden::kGolden;
using reduction_golden::ReducedGraphHash;
using reduction_golden::StageOptions;

// Helpers backed by a fixed set of threads that take every offered job.
class ThreadHelpers : public ParallelHelpers {
 public:
  explicit ThreadHelpers(int threads) {
    for (int i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  }
  ~ThreadHelpers() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void Offer(const std::shared_ptr<ParallelJob>& job,
             size_t max_helpers) override {
    offers_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < std::min(max_helpers, threads_.size()); ++i) {
        jobs_.push_back(job);
      }
    }
    ready_.notify_all();
  }

  int offers() const { return offers_.load(std::memory_order_relaxed); }

 private:
  void Loop() {
    while (true) {
      std::shared_ptr<ParallelJob> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job->Help();
    }
  }

  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::shared_ptr<ParallelJob>> jobs_;
  bool stopping_ = false;
  std::atomic<int> offers_{0};
  std::vector<std::thread> threads_;
};

// Keeps every offered job and helps only when told to, after the caller
// has finished: a helper that arrives late must find nothing left to run.
class LateHelpers : public ParallelHelpers {
 public:
  void Offer(const std::shared_ptr<ParallelJob>& job, size_t) override {
    jobs_.push_back(job);
  }
  void ArriveLate() {
    for (const std::shared_ptr<ParallelJob>& job : jobs_) job->Help();
  }

 private:
  std::vector<std::shared_ptr<ParallelJob>> jobs_;
};

// Records offers and never helps.
class RecordingHelpers : public ParallelHelpers {
 public:
  void Offer(const std::shared_ptr<ParallelJob>&, size_t) override {
    ++offers_;
  }
  int offers() const { return offers_; }

 private:
  int offers_ = 0;
};

TEST(ParallelReduction, ParallelForRunsEveryChunkOnce) {
  for (int threads : {0, 1, 3}) {
    ThreadHelpers helpers(threads);
    for (size_t n : {0, 1, 7, 64, 1000}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(&helpers, n, 3, [&](size_t begin, size_t end) {
        EXPECT_EQ(begin % 3, 0u);
        EXPECT_EQ(end, std::min(n, begin + 3));
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    }
  }
}

TEST(ParallelReduction, SingleChunkAndNullHelpersRunInline) {
  RecordingHelpers recording;
  const std::thread::id caller = std::this_thread::get_id();
  int chunks = 0;
  ParallelFor(&recording, 10, 10, [&](size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++chunks;
  });
  ParallelFor(nullptr, 10, 2, [&](size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++chunks;
  });
  EXPECT_EQ(chunks, 1 + 5);
  EXPECT_EQ(recording.offers(), 0);
}

TEST(ParallelReduction, ThrowingChunkWithdrawsTheRest) {
  // Whichever thread runs the throwing chunk, the caller rethrows, and no
  // chunk starts once ParallelFor has returned.
  for (int threads : {0, 2}) {
    ThreadHelpers helpers(threads);
    std::atomic<int> ran{0};
    std::atomic<bool> returned{false};
    std::atomic<int> after_return{0};
    EXPECT_THROW(ParallelFor(&helpers, 1000, 1,
                             [&](size_t begin, size_t) {
                               if (returned.load()) after_return.fetch_add(1);
                               ran.fetch_add(1);
                               if (begin == 5) throw std::runtime_error("x");
                               std::this_thread::sleep_for(
                                   std::chrono::microseconds(50));
                             }),
                 std::runtime_error);
    returned.store(true);
    const int at_return = ran.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_LT(at_return, 1000);
    EXPECT_EQ(ran.load(), at_return);
    EXPECT_EQ(after_return.load(), 0);
  }
}

// Every scale-4 fingerprint of ReductionGoldenTest, reduced with `helpers`:
// the full pipeline, where EnColorfulSup takes over ColorfulSup's triangle
// index, and each stage alone, where ColorfulSup or EnColorfulSup lists its
// own. Then ColorfulSup switched off, where EnColorfulSup lists from
// EnColorfulCore's survivor copy; it has no fingerprint, so the serial run
// is the reference.
void ExpectScale4Fingerprints(const std::string& name,
                              ParallelHelpers* helpers) {
  const AttributedGraph g = LoadDataset(name, 4);
  const std::vector<int>& k_range = DatasetByName(name).k_range;
  size_t checked[4] = {0, 0, 0, 0};
  for (const GoldenReduction& want : kGolden) {
    if (want.dataset != name || want.scale != 4) continue;
    ReductionPipelineResult r =
        ReduceForFairClique(g, want.k, StageOptions(want.stages), helpers);
    SCOPED_TRACE(testing::Message()
                 << name << " x4 k=" << want.k << " stages=" << want.stages);
    EXPECT_EQ(r.reduced.num_vertices(), want.vertices);
    EXPECT_EQ(r.reduced.num_edges(), want.edges);
    EXPECT_EQ(ReducedGraphHash(r), want.hash);
    ++checked[want.stages];
  }
  for (size_t count : checked) EXPECT_EQ(count, k_range.size());
  const ReductionOptions no_colorful_sup{true, false, true};
  for (int k : k_range) {
    SCOPED_TRACE(testing::Message() << name << " x4 k=" << k
                                    << " without ColorfulSup");
    EXPECT_EQ(
        ReducedGraphHash(ReduceForFairClique(g, k, no_colorful_sup, helpers)),
        ReducedGraphHash(ReduceForFairClique(g, k, no_colorful_sup)));
  }
}

class StandInFingerprints : public ::testing::TestWithParam<const char*> {};

TEST_P(StandInFingerprints, HelperCountDoesNotChangeReducedGraphs) {
  const std::string name = GetParam();
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " helper threads");
    ThreadHelpers helpers(threads);
    ExpectScale4Fingerprints(name, &helpers);
  }
  LateHelpers late;
  ExpectScale4Fingerprints(name, &late);
  late.ArriveLate();
}

INSTANTIATE_TEST_SUITE_P(
    ParallelReduction, StandInFingerprints,
    ::testing::Values("themarker-s", "google-s", "dblp-s", "flixster-s",
                      "pokec-s", "aminer-s"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ParallelReduction, LargerStandInsOfferWork) {
  // The cutoff must not hide the parallel path from the scale-4 tests: at
  // least these two stand-ins reach it there, in the full pipeline and with
  // each stage alone.
  for (const char* name : {"pokec-s", "dblp-s"}) {
    const AttributedGraph g = LoadDataset(name, 4);
    const DatasetSpec spec = DatasetByName(name);
    for (int stages = 0; stages < 4; ++stages) {
      RecordingHelpers recording;
      ReduceForFairClique(g, spec.default_k, StageOptions(stages), &recording);
      EXPECT_GT(recording.offers(), 0) << name << " stages=" << stages;
    }
  }
}

TEST(ParallelReduction, ScaleOneStandInsStayUnderTheCutoff) {
  for (const DatasetSpec& spec : StandardDatasets()) {
    const AttributedGraph g = LoadDataset(spec.name);
    EXPECT_LT(g.num_edges(), kParallelMinWork) << spec.name;
    RecordingHelpers recording;
    for (int k : spec.k_range) {
      for (int stages = 0; stages < 4; ++stages) {
        ReduceForFairClique(g, k, StageOptions(stages), &recording);
      }
    }
    EXPECT_EQ(recording.offers(), 0) << spec.name;
  }
}

TEST(ParallelReduction, IdleExecutorWorkersRunOfferedChunks) {
  QueryExecutor executor(ExecutorOptions{3, 8});
  const std::thread::id caller = std::this_thread::get_id();
  // Workers count as idle only once they block on the work queue, so retry
  // until one has taken a chunk.
  bool helped = false;
  for (int attempt = 0; attempt < 200 && !helped; ++attempt) {
    std::atomic<bool> foreign{false};
    ParallelFor(&executor, 32, 1, [&](size_t, size_t) {
      if (std::this_thread::get_id() != caller) foreign.store(true);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    helped = foreign.load();
    if (!helped) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(helped);
  // Assists are not component tasks.
  EXPECT_EQ(executor.metrics().component_tasks, 0u);
}

TEST(ParallelReduction, ExecutorPlansEqualSerialPlans) {
  GraphRegistry registry;
  ASSERT_TRUE(registry.Add("pokec4", LoadDataset("pokec-s", 4)).ok());
  std::shared_ptr<const RegisteredGraph> graph = registry.Get("pokec4");
  PreparedGraphCache prepared(16);
  QueryExecutor executor(ExecutorOptions{3, 16}, nullptr, &prepared);
  const DatasetSpec spec = DatasetByName("pokec-s");

  // Fully cold for the result cache (there is none) and for the plan cache
  // (each k is new); the executor's plans are built with its idle workers
  // as helpers and published to `prepared`.
  std::vector<std::future<QueryResponse>> futures;
  for (int k : spec.k_range) {
    QueryRequest request;
    request.graph = graph;
    request.options.params = {k, spec.default_delta};
    request.bypass_cache = true;
    futures.push_back(executor.Submit(request));
  }
  for (auto& f : futures) {
    QueryResponse response = f.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.prepared_hit);
  }
  for (int k : spec.k_range) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const SearchOptions options;
    std::shared_ptr<const PreparedGraph> plan = prepared.Get(
        PreparedGraphCache::MakeKey(graph->fingerprint, k, options.reductions));
    ASSERT_NE(plan, nullptr);
    std::shared_ptr<const PreparedGraph> serial =
        PrepareGraph(*graph->graph, k, options.reductions);
    EXPECT_EQ(plan->reduced.num_vertices(), serial->reduced.num_vertices());
    ASSERT_EQ(plan->reduced.num_edges(), serial->reduced.num_edges());
    for (EdgeId e = 0; e < serial->reduced.num_edges(); ++e) {
      ASSERT_EQ(plan->reduced.edges()[e].u, serial->reduced.edges()[e].u);
      ASSERT_EQ(plan->reduced.edges()[e].v, serial->reduced.edges()[e].v);
    }
    EXPECT_EQ(plan->original_ids, serial->original_ids);
  }
}

}  // namespace
}  // namespace fairclique
