#ifndef FAIRCLIQUE_COMMON_BITSET_SIMD_H_
#define FAIRCLIQUE_COMMON_BITSET_SIMD_H_

/// The runtime-dispatched word-array kernel of the bitset branch engine:
/// the fused candidate-row intersection with its per-attribute counts.
///
/// The kernel operates on raw uint64_t word arrays (no bit-size concept:
/// callers own tail-word hygiene). Three variants exist:
///
///   scalar — portable reference, always available; also the differential
///            baseline the tests and bench_micro compare against.
///   avx2   — x86-64 with AVX2+POPCNT, selected at runtime via cpuid;
///            bitwise ops on 256-bit lanes, popcounts via the vpshufb
///            nibble-LUT + psadbw reduction.
///   neon   — aarch64 (NEON is baseline there): 128-bit lanes, vcntq_u8.
///
/// Dispatch is one relaxed atomic pointer load, resolved on first use. The
/// inline wrapper below skips the indirect call entirely for tiny operands
/// (< kDispatchMinWords), where the loop body beats the call overhead.
///
/// Building with -DFAIRCLIQUE_FORCE_SCALAR=ON (CMake option, CI matrix leg)
/// pins the scalar variant and compiles no vector ISA at all, so both code
/// paths stay green. Tests force a specific variant with SetKernelOverride.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fairclique {
namespace simd {

/// Result of the fused candidate-row intersection: total set bits of the
/// intersection and how many of them also fall inside `mask`. The branch
/// kernel derives both per-attribute counts from one pass (attribute B is
/// total - in_mask, since every vertex carries exactly one attribute).
struct DualCount {
  uint64_t total = 0;
  uint64_t in_mask = 0;
};

/// One kernel variant.
struct Kernels {
  const char* name;  // "scalar" | "avx2" | "neon"
  /// dst[i] = a[i] & b[i] for i in [0, n); returns {popcount(dst),
  /// popcount(dst & mask)}. dst may alias a (not b or mask).
  DualCount (*intersect_into_dual)(uint64_t* dst, const uint64_t* a,
                                   const uint64_t* b, const uint64_t* mask,
                                   size_t n);
};

/// The portable reference variant (always available).
const Kernels& Scalar();

/// The dispatched variant: the best the CPU supports, unless pinned by
/// FAIRCLIQUE_FORCE_SCALAR or SetKernelOverride.
const Kernels& Active();

/// Name of the dispatched variant ("scalar" / "avx2" / "neon"), surfaced in
/// EXPLAIN plans and `stats` so kernel regressions are visible per query.
const char* ActiveName();

/// Variant names this build+CPU can run, scalar first.
std::vector<std::string> SupportedKernels();

/// Pins dispatch to a named variant ("scalar", "avx2", "neon"); nullptr or
/// "auto" restores CPU-based selection. Returns false (and changes nothing)
/// when the variant is unsupported on this build or CPU. Used by the
/// differential tests and the self-controlled scalar-vs-SIMD benches.
bool SetKernelOverride(const char* name);

/// Defined in bitset_simd_avx2.cc, which is the only TU compiled with
/// -mavx2: returns the AVX2 table, or nullptr when that TU was built
/// without AVX2 support. Callers still must check cpuid before using it.
const Kernels* Avx2Kernels();

/// Word counts below this run the inline scalar loop instead of the
/// dispatched kernel: under 512 bits the indirect call costs more than it
/// saves. (AVX2 processes 4 words per lane; dispatch from 8 words up.)
inline constexpr size_t kDispatchMinWords = 8;

// Tiny-operand fast path, dispatched kernel beyond.
inline DualCount IntersectIntoDual(uint64_t* dst, const uint64_t* a,
                                   const uint64_t* b, const uint64_t* mask,
                                   size_t n) {
  if (n < kDispatchMinWords) {
    DualCount out;
    for (size_t i = 0; i < n; ++i) {
      uint64_t w = a[i] & b[i];
      dst[i] = w;
      out.total += static_cast<uint64_t>(__builtin_popcountll(w));
      out.in_mask += static_cast<uint64_t>(__builtin_popcountll(w & mask[i]));
    }
    return out;
  }
  return Active().intersect_into_dual(dst, a, b, mask, n);
}

}  // namespace simd
}  // namespace fairclique

#endif  // FAIRCLIQUE_COMMON_BITSET_SIMD_H_
