#include "common/parallel_for.h"

namespace fairclique {

bool ParallelJob::RunOne() {
  // Relaxed: the data a chunk reads was published before the job was
  // offered, and its results are published through mu_ below.
  const size_t chunk = next_.fetch_add(1, std::memory_order_relaxed);
  if (chunk >= chunks_) return false;
  const size_t begin = chunk * grain_;
  std::exception_ptr error;
  try {
    run_(body_, begin, std::min(n_, begin + grain_));
  } catch (...) {
    error = std::current_exception();
  }
  fc::MutexLock lock(mu_);
  if (error != nullptr && error_ == nullptr) {
    // Withdraw the unclaimed chunks; the ones claimed so far still finish.
    error_ = error;
    claimed_ = std::min(next_.exchange(chunks_), chunks_);
  }
  ++done_;
  finished_.NotifyAll();
  return true;
}

void ParallelJob::Help() {
  while (RunOne()) {
  }
}

void ParallelJob::Join() {
  Help();
  std::exception_ptr error;
  {
    fc::MutexLock lock(mu_);
    while (done_ < claimed_) finished_.Wait(lock);
    error = error_;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace fairclique
