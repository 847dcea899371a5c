#ifndef FAIRCLIQUE_STORAGE_FCG2_H_
#define FAIRCLIQUE_STORAGE_FCG2_H_

#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace fairclique {
namespace storage {

/// FCG2: the sectioned, mmap-friendly snapshot container. Where a text
/// edge list is parsed and its CSR arrays rebuilt on every load, FCG2
/// stores the CSR arrays themselves, 8-byte aligned, each
/// section length- and checksum-framed, so a load is mmap + verify + adopt
/// (AttributedGraph::FromCsr) — no parsing, no sorting, no allocation
/// proportional to the graph.
///
/// Layout (all integers little-endian):
///
///   header (32 bytes)
///     0  magic "FCG2"
///     4  u32 format_version (= 1)
///     8  u32 num_vertices
///    12  u32 num_edges
///    16  u32 max_degree
///    20  u32 section_count (= 5)
///    24  u64 file_size            -- total; rejects trailing garbage
///   section table (section_count * 32 bytes)
///     per section: u32 kind, u32 reserved, u64 offset, u64 length,
///                  u64 checksum (FNV-1a over the section bytes)
///   u64 table_checksum            -- FNV-1a over header + section table
///   sections, each starting at an 8-byte-aligned offset:
///     kind 1  offsets     (num_vertices + 1) * u64
///     kind 2  adjacency   2 * num_edges * u32
///     kind 3  edge_ids    2 * num_edges * u32
///     kind 4  edges       num_edges * (u32 u, u32 v), u < v, sorted
///     kind 5  attributes  num_vertices * u8 (0 = a, 1 = b)
///
/// Load-time validation: magic/version/file size, table checksum, per-
/// section bounds + alignment + expected length + checksum, then O(V + E)
/// structural scans establishing every invariant FromCsr's adopters rely
/// on: offsets monotone and spanning, endpoints in range, attribute bytes
/// <= 1, max_degree consistent, adjacency rows strictly sorted, edge ids
/// wired to their {u, v} pairs. A checksum-consistent file from a buggy
/// external writer is rejected, not silently mis-searched.

/// First bytes of every FCG2 file, for format sniffing.
inline constexpr char kFcg2Magic[4] = {'F', 'C', 'G', '2'};

/// Writes `g` as an FCG2 container. Atomic: writes "<path>.tmp", fsyncs,
/// renames over `path`, so a crash never leaves a half-written snapshot
/// under the final name.
Status SaveFcg2(const AttributedGraph& g, const std::string& path);

/// Maps `path` and adopts its CSR sections zero-copy: `out` views the mapped
/// pages and keeps the mapping alive (shared with all copies). Fails with
/// Corruption on any validation failure, IOError when the file cannot be
/// mapped.
Status LoadFcg2(const std::string& path, AttributedGraph* out);

}  // namespace storage
}  // namespace fairclique

#endif  // FAIRCLIQUE_STORAGE_FCG2_H_
