#ifndef FAIRCLIQUE_CORE_FAIRCLIQUE_H_
#define FAIRCLIQUE_CORE_FAIRCLIQUE_H_

/// Umbrella header: the full public API of the fairclique library.
///
/// Quickstart:
///
///   #include "core/fairclique.h"
///   using namespace fairclique;
///
///   AttributedGraph g = ...;                       // build or load a graph
///   SearchResult r = FindMaximumFairClique(
///       g, FullOptions(/*k=*/3, /*delta=*/1, ExtraBound::kColorfulPath));
///   // r.clique.vertices is a maximum relative fair clique.

#include "bounds/upper_bounds.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/enumeration.h"
#include "core/fair_variants.h"
#include "core/heuristics.h"
#include "core/max_clique.h"
#include "core/max_fair_clique.h"
#include "core/options_key.h"
#include "core/prepared_graph.h"
#include "core/verifier.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_search.h"
#include "graph/coloring.h"
#include "graph/cores.h"
#include "graph/fingerprint.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "graph/triangles.h"
#include "graph/types.h"
#include "reduction/colorful_core.h"
#include "reduction/colorful_support.h"
#include "reduction/reduce.h"
#include "service/graph_registry.h"
#include "service/prepared_graph_cache.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "service/wire.h"
#include "storage/fcg2.h"
#include "storage/storage_manager.h"
#include "storage/wal.h"
#include "storage/warm_file.h"

#endif  // FAIRCLIQUE_CORE_FAIRCLIQUE_H_
