// Per-run heap-allocation counter for the benches.
//
// Every bench binary links this TU, which interposes the global operator
// new family and counts allocations into one relaxed atomic. EmitJson()
// reads the total through AllocCount() and publishes it as the "allocs"
// field of BENCH_<name>.json, giving CI a direct, scrape-free view of how
// many heap allocations a run performed — the number the pooled data path
// exists to drive toward zero.
//
// The interposers are compiled only into Release (NDEBUG) non-sanitized
// builds: sanitizers ship their own operator new and must keep it, and
// Debug timing is not what the ceiling in ci/smoke.sh guards. When
// the interposers are absent AllocCount() stays 0, which the CI check
// treats as "not counted" and skips.

#include <atomic>
#include <cstdint>

namespace npr {
namespace bench {
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

namespace internal {
inline void CountAlloc() { g_allocs.fetch_add(1, std::memory_order_relaxed); }
}  // namespace internal
}  // namespace bench
}  // namespace npr

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NPR_ALLOC_COUNT_OFF 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NPR_ALLOC_COUNT_OFF 1
#endif
#if !defined(NDEBUG)
#define NPR_ALLOC_COUNT_OFF 1
#endif

#if !defined(NPR_ALLOC_COUNT_OFF)

#include <cstdlib>
#include <new>

namespace {

void* CountedAlloc(std::size_t n) {
  npr::bench::internal::CountAlloc();
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  npr::bench::internal::CountAlloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n != 0 ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  npr::bench::internal::CountAlloc();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  npr::bench::internal::CountAlloc();
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) { return CountedAlignedAlloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return CountedAlignedAlloc(n, al); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

#endif  // !NPR_ALLOC_COUNT_OFF
