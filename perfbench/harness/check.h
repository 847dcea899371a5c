// Answer checking. Every served answer is logged with the graph epoch it was
// answered on; after the timed loop the checker verifies each witness with
// VerifyFairClique on that epoch and compares its size with the reference of
// oracle.h, one clique profile per epoch, which shares no reduction, bound
// or branch code with the search it checks. So a reduction that wrongly
// removes vertices shows as a wrong answer instead of shrinking the answer
// and its reference together. References are computed outside every timed
// interval.
#ifndef FAIRCLIQUE_PERFBENCH_CHECK_H_
#define FAIRCLIQUE_PERFBENCH_CHECK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace perfbench {

struct Answer {
  std::shared_ptr<const fairclique::AttributedGraph> graph;
  uint64_t fingerprint = 0;
  std::string dataset;
  int k = 1;
  int delta = 0;
  std::vector<fairclique::VertexId> vertices;
};

class AnswerChecker {
 public:
  void Record(Answer answer) { answers_.push_back(std::move(answer)); }

  /// Checks every recorded answer using `threads` reference workers.
  /// Returns the number of wrong answers; `first_error` describes one.
  size_t CheckAll(int threads, std::string* first_error) const;

 private:
  std::vector<Answer> answers_;
};

}  // namespace perfbench

#endif  // FAIRCLIQUE_PERFBENCH_CHECK_H_
