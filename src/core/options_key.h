#ifndef FAIRCLIQUE_CORE_OPTIONS_KEY_H_
#define FAIRCLIQUE_CORE_OPTIONS_KEY_H_

#include <string>

#include "core/max_fair_clique.h"

namespace fairclique {

/// Canonical cache key of a SearchOptions: a compact string identifying the
/// *answer* a search will produce, used by the service-layer result cache.
///
/// Two options that cannot produce different results map to the same key:
///  - `engine` is dropped — both candidate-set representations run the one
///    branch kernel, so they return identical answers;
///  - `warm_start` is dropped — a (verified) warm start primes the incumbent
///    but the search still proves optimality, so the answer *size* is
///    identical; the returned witness may differ, which callers must treat
///    as unspecified (as they already do for task scheduling).
///
/// Everything that can change the returned clique or the `completed` flag is
/// included: fairness parameters, reduction toggles, bound configuration,
/// heuristic priming, and the node/time safety valves. In particular the
/// three presets (BaselineOptions, BoundedOptions, FullOptions) resolve to
/// distinct keys, while any two call sites building equal options — by
/// preset or by hand — collide on the same key.
std::string CanonicalOptionsKey(const SearchOptions& options);

}  // namespace fairclique

#endif  // FAIRCLIQUE_CORE_OPTIONS_KEY_H_
