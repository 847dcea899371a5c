#include "common/bitset_simd.h"

#include <atomic>
#include <cstring>

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace fairclique {
namespace simd {

namespace {

// ------------------------------------------------------------- scalar ----
// The portable reference. Also the differential baseline: every other
// variant must be bit-exact against it (tests/bitset_kernel_test.cpp).

DualCount ScalarIntersectIntoDual(uint64_t* dst, const uint64_t* a,
                                  const uint64_t* b, const uint64_t* mask,
                                  size_t n) {
  DualCount out;
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = a[i] & b[i];
    dst[i] = w;
    out.total += static_cast<uint64_t>(__builtin_popcountll(w));
    out.in_mask += static_cast<uint64_t>(__builtin_popcountll(w & mask[i]));
  }
  return out;
}

constexpr Kernels kScalar = {"scalar", ScalarIntersectIntoDual};

// --------------------------------------------------------------- neon ----
// NEON is baseline on aarch64, so this variant is compile-time selected
// (no cpuid probe needed) and dispatch only chooses between neon/scalar.

#if defined(__aarch64__) && defined(__ARM_NEON) && \
    !defined(FAIRCLIQUE_FORCE_SCALAR)
#define FAIRCLIQUE_HAVE_NEON 1

inline uint64_t NeonPop128(uint64x2_t v) {
  return vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v)));
}

DualCount NeonIntersectIntoDual(uint64_t* dst, const uint64_t* a,
                                const uint64_t* b, const uint64_t* mask,
                                size_t n) {
  DualCount out;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t w = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    vst1q_u64(dst + i, w);
    out.total += NeonPop128(w);
    out.in_mask += NeonPop128(vandq_u64(w, vld1q_u64(mask + i)));
  }
  for (; i < n; ++i) {
    uint64_t w = a[i] & b[i];
    dst[i] = w;
    out.total += static_cast<uint64_t>(__builtin_popcountll(w));
    out.in_mask += static_cast<uint64_t>(__builtin_popcountll(w & mask[i]));
  }
  return out;
}

constexpr Kernels kNeon = {"neon", NeonIntersectIntoDual};
#endif  // aarch64 NEON

// Best variant for this build + CPU (ignoring any override).
const Kernels* DetectKernels() {
#if defined(FAIRCLIQUE_FORCE_SCALAR)
  return &kScalar;
#else
#if defined(FAIRCLIQUE_HAVE_NEON)
  return &kNeon;
#endif
#if defined(__x86_64__) || defined(_M_X64)
  if (const Kernels* avx2 = Avx2Kernels()) {
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) {
      return avx2;
    }
  }
#endif
  return &kScalar;
#endif
}

std::atomic<const Kernels*> g_active{nullptr};

}  // namespace

const Kernels& Scalar() { return kScalar; }

const Kernels& Active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign first-use race: DetectKernels is deterministic, so concurrent
    // initializers store the same pointer.
    k = DetectKernels();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

const char* ActiveName() { return Active().name; }

std::vector<std::string> SupportedKernels() {
  std::vector<std::string> names{"scalar"};
  const Kernels* best = DetectKernels();
  if (best != &kScalar) names.push_back(best->name);
  return names;
}

bool SetKernelOverride(const char* name) {
  if (name == nullptr || std::strcmp(name, "auto") == 0) {
    g_active.store(DetectKernels(), std::memory_order_release);
    return true;
  }
  if (std::strcmp(name, "scalar") == 0) {
    g_active.store(&kScalar, std::memory_order_release);
    return true;
  }
  const Kernels* best = DetectKernels();
  if (best != &kScalar && std::strcmp(name, best->name) == 0) {
    g_active.store(best, std::memory_order_release);
    return true;
  }
  return false;
}

}  // namespace simd
}  // namespace fairclique
