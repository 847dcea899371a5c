#ifndef FAIRCLIQUE_COMMON_PARALLEL_FOR_H_
#define FAIRCLIQUE_COMMON_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <type_traits>

#include "common/thread_annotations.h"

namespace fairclique {

class ParallelJob;

/// Threads that may lend a hand with a ParallelFor. The library's one
/// implementation is QueryExecutor, which lends the workers that are idle at
/// the moment of the offer.
class ParallelHelpers {
 public:
  ParallelHelpers() = default;
  ParallelHelpers(const ParallelHelpers&) = delete;
  ParallelHelpers& operator=(const ParallelHelpers&) = delete;
  virtual ~ParallelHelpers() = default;

  /// Asks up to `max_helpers` threads to call job->Help() once each. Never
  /// blocks. A helper may arrive at any later time, including after the
  /// ParallelFor returned, or not at all.
  virtual void Offer(const std::shared_ptr<ParallelJob>& job,
                     size_t max_helpers) = 0;
};

/// The shared state of one ParallelFor: [0, n) cut into chunks of `grain`
/// items, claimed one at a time from an atomic counter. Owned through
/// shared_ptr by the caller and every queued helper entry.
class ParallelJob {
 public:
  using ChunkFn = void (*)(const void* body, size_t begin, size_t end);

  ParallelJob(size_t n, size_t grain, ChunkFn run, const void* body)
      : n_(n),
        grain_(grain),
        chunks_((n + grain - 1) / grain),
        run_(run),
        body_(body) {}

  ParallelJob(const ParallelJob&) = delete;
  ParallelJob& operator=(const ParallelJob&) = delete;

  size_t chunks() const { return chunks_; }

  /// Runs unclaimed chunks until none is left. Once every chunk has been
  /// claimed this returns without touching the loop body, so a helper that
  /// arrives after the caller has finished is harmless.
  void Help();

  /// The caller's share: runs chunks like Help(), then waits until every
  /// claimed chunk has finished. If a chunk threw, on any thread, the
  /// unclaimed chunks are withdrawn and the first exception is rethrown
  /// here once the claimed ones are done, so the body never outlives the
  /// call.
  void Join();

 private:
  // Claims and runs one chunk; false when every chunk is already claimed.
  bool RunOne();

  const size_t n_;
  const size_t grain_;
  const size_t chunks_;
  const ChunkFn run_;
  const void* const body_;
  std::atomic<size_t> next_{0};
  fc::Mutex mu_;
  fc::CondVar finished_;
  size_t done_ GUARDED_BY(mu_) = 0;
  // Chunks that were handed out: all of them unless a chunk threw.
  size_t claimed_ GUARDED_BY(mu_) = chunks_;
  std::exception_ptr error_ GUARDED_BY(mu_);
};

/// Passes over fewer graph elements (edges or triangles) than this run
/// inline: below it, waking a helper costs about as much as the share it
/// would take, and the serving workload's small graphs keep the workers to
/// themselves.
inline constexpr uint64_t kParallelMinWork = uint64_t{1} << 17;

/// `helpers` for a pass over `work` graph elements; null below
/// kParallelMinWork.
inline ParallelHelpers* HelpersForWork(ParallelHelpers* helpers,
                                       uint64_t work) {
  return work >= kParallelMinWork ? helpers : nullptr;
}

/// Calls fn(begin, end) once for every chunk [c * grain, min(n, (c+1) *
/// grain)) of [0, n). The calling thread always runs chunks itself; idle
/// helper threads, if any, take the other chunks concurrently, so `fn` must
/// only write state its chunk owns. The chunks do not depend on the helpers,
/// and with a null `helpers` (or a single chunk) they all run inline, in
/// order, on the caller.
template <typename Fn>
void ParallelFor(ParallelHelpers* helpers, size_t n, size_t grain, Fn&& fn) {
  grain = std::max<size_t>(grain, 1);
  const auto& body = fn;
  if (helpers == nullptr || n <= grain) {
    for (size_t begin = 0; begin < n; begin += grain) {
      body(begin, std::min(n, begin + grain));
    }
    return;
  }
  using Body = std::remove_reference_t<decltype(body)>;
  auto job = std::make_shared<ParallelJob>(
      n, grain,
      [](const void* b, size_t begin, size_t end) {
        (*static_cast<Body*>(b))(begin, end);
      },
      &body);
  helpers->Offer(job, job->chunks() - 1);
  job->Join();
}

}  // namespace fairclique

#endif  // FAIRCLIQUE_COMMON_PARALLEL_FOR_H_
