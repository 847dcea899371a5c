#include "check.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "core/verifier.h"
#include "oracle.h"

namespace perfbench {

size_t AnswerChecker::CheckAll(int threads, std::string* first_error) const {
  // One profile per distinct graph epoch answers every (k, delta) on it.
  std::map<uint64_t, const fairclique::AttributedGraph*> graphs;
  for (const Answer& answer : answers_) {
    graphs.emplace(answer.fingerprint, answer.graph.get());
  }
  std::vector<std::pair<uint64_t, const fairclique::AttributedGraph*>> work(
      graphs.begin(), graphs.end());
  std::vector<std::unique_ptr<CliqueProfile>> profiles(work.size());
  std::atomic<size_t> next{0};
  auto worker = [&work, &profiles, &next] {
    for (size_t i = next.fetch_add(1); i < work.size(); i = next.fetch_add(1)) {
      profiles[i] = std::make_unique<CliqueProfile>(*work[i].second);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(threads, 1); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  std::map<uint64_t, const CliqueProfile*> by_fingerprint;
  for (size_t i = 0; i < work.size(); ++i) {
    by_fingerprint[work[i].first] = profiles[i].get();
  }

  size_t wrong = 0;
  for (const Answer& answer : answers_) {
    const size_t expected =
        by_fingerprint.at(answer.fingerprint)->MaxFairSize(answer.k,
                                                           answer.delta);
    std::string error;
    if (answer.vertices.size() != expected) {
      error = "size " + std::to_string(answer.vertices.size()) +
              " != reference " + std::to_string(expected);
    } else if (expected > 0) {
      fairclique::Status status = fairclique::VerifyFairClique(
          *answer.graph, answer.vertices, {answer.k, answer.delta});
      if (!status.ok()) error = status.ToString();
    }
    if (!error.empty()) {
      if (wrong == 0 && first_error != nullptr) {
        *first_error = answer.dataset + " k=" + std::to_string(answer.k) +
                       " delta=" + std::to_string(answer.delta) + ": " + error;
      }
      ++wrong;
    }
  }
  return wrong;
}

}  // namespace perfbench
