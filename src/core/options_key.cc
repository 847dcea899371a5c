#include "core/options_key.h"

#include <cstdio>

namespace fairclique {

std::string CanonicalOptionsKey(const SearchOptions& options) {
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "k=%d|d=%d|red=%d%d%d|adv=%d|xb=%d|heur=%d|nl=%llu|tl=%.17g",
      options.params.k, options.params.delta,
      options.reductions.use_en_colorful_core ? 1 : 0,
      options.reductions.use_colorful_sup ? 1 : 0,
      options.reductions.use_en_colorful_sup ? 1 : 0,
      options.bounds.use_advanced ? 1 : 0,
      static_cast<int>(options.bounds.extra), options.use_heuristic ? 1 : 0,
      static_cast<unsigned long long>(options.node_limit),
      options.time_limit_seconds);
  return std::string(buf);
}

}  // namespace fairclique
