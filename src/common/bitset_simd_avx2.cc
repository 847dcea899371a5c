// The only TU compiled with -mavx2 -mpopcnt (see CMakeLists.txt). Keeping
// the intrinsics isolated here avoids gcc's target-attribute inlining traps
// and guarantees no AVX2 instruction leaks into always-executed code; the
// dispatcher calls Avx2Kernels() only after a cpuid check.

#include "common/bitset_simd.h"

#if defined(__AVX2__) && !defined(FAIRCLIQUE_FORCE_SCALAR)

#include <immintrin.h>

namespace fairclique {
namespace simd {

namespace {

// Positional popcount of a 256-bit lane via the vpshufb nibble LUT (Mula):
// per-byte counts summed into four 64-bit lanes by psadbw. Accumulate lanes
// across the loop, reduce once at the end.
inline __m256i PopcountBytes256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline uint64_t ReduceLanes(__m256i acc) {
  return static_cast<uint64_t>(_mm256_extract_epi64(acc, 0)) +
         static_cast<uint64_t>(_mm256_extract_epi64(acc, 1)) +
         static_cast<uint64_t>(_mm256_extract_epi64(acc, 2)) +
         static_cast<uint64_t>(_mm256_extract_epi64(acc, 3));
}

DualCount Avx2IntersectIntoDual(uint64_t* dst, const uint64_t* a,
                                const uint64_t* b, const uint64_t* mask,
                                size_t n) {
  __m256i acc_total = _mm256_setzero_si256();
  __m256i acc_mask = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i vm =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    __m256i w = _mm256_and_si256(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), w);
    acc_total = _mm256_add_epi64(acc_total, PopcountBytes256(w));
    acc_mask = _mm256_add_epi64(
        acc_mask, PopcountBytes256(_mm256_and_si256(w, vm)));
  }
  DualCount out;
  out.total = ReduceLanes(acc_total);
  out.in_mask = ReduceLanes(acc_mask);
  for (; i < n; ++i) {
    uint64_t w = a[i] & b[i];
    dst[i] = w;
    out.total += static_cast<uint64_t>(_mm_popcnt_u64(w));
    out.in_mask += static_cast<uint64_t>(_mm_popcnt_u64(w & mask[i]));
  }
  return out;
}

constexpr Kernels kAvx2 = {"avx2", Avx2IntersectIntoDual};

}  // namespace

const Kernels* Avx2Kernels() { return &kAvx2; }

}  // namespace simd
}  // namespace fairclique

#else  // !__AVX2__ or forced scalar: this TU was built without the ISA.

namespace fairclique {
namespace simd {

const Kernels* Avx2Kernels() { return nullptr; }

}  // namespace simd
}  // namespace fairclique

#endif
