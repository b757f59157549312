// Hot-path effect contracts: the compile-time counterpart of the paper's
// "the packet path is the scalability budget" argument.
//
// A function annotated KLB_NONBLOCKING must never block (no mutex
// acquire, no syscall that sleeps) and, by implication, never allocate;
// KLB_NONALLOCATING is the weaker contract — touching the heap is not
// legal, but a call the analysis cannot see through may be. Both map onto
// Clang 20's function-effects attributes ([[clang::nonblocking]] /
// [[clang::nonallocating]], verified by -Wfunction-effects; see
// clang.llvm.org/docs/FunctionEffectAnalysis.html) and expand to nothing
// on GCC and older clang — zero cost, zero divergence.
//
// Enforcement is two-pronged:
//
//   1. Compile time: clang >= 20 builds run -Wfunction-effects (CI adds
//      -Werror), so a stray std::vector temporary, shared_ptr copy, or
//      blocking lock inside an annotated lane fails the build. The
//      negative-compilation suite (tests/negative_compile/effect_*.cpp)
//      pins the analysis.
//
//   2. Run time: a RealtimeSanitizer CI job (-fsanitize=realtime) drives
//      bench_mux_hotpath, flow_table_test, batch_equivalence_test and
//      zero_alloc_test. RTSan enters a "realtime context" at every
//      [[clang::nonblocking]] function and aborts on malloc/lock/syscall
//      anywhere downstream — including through the type-erased calls
//      (std::function taps, virtual picks) the static analysis cannot see
//      through.
//
// KLB_EFFECT_ESCAPE(site, stmt...) is the one sanctioned hole: it
// suppresses the static diagnostic, suspends RTSan for the enclosed
// statements, and (in debug builds) records `site` in a process-wide
// registry. Every site must be listed in kDocumentedEscapeSites below and
// justified in README "Hot-path effect contracts"; zero_alloc_test asserts
// the registry never sees an undocumented site, so an escape cannot be
// added quietly.
#pragma once

#include <cstddef>

// --- Clang 20 function-effects attribute macros -------------------------------
// The attributes are part of the function *type* and are spelled after the
// parameter list (like noexcept): `void f() KLB_NONBLOCKING;`.
#if defined(__clang__) && __clang_major__ >= 20
#define KLB_HAS_FUNCTION_EFFECTS 1
#define KLB_NONBLOCKING [[clang::nonblocking]]
#define KLB_NONALLOCATING [[clang::nonallocating]]
#define KLB_EFFECTS_SUPPRESS_BEGIN \
  _Pragma("clang diagnostic push") \
      _Pragma("clang diagnostic ignored \"-Wfunction-effects\"")
#define KLB_EFFECTS_SUPPRESS_END _Pragma("clang diagnostic pop")
#else
#define KLB_HAS_FUNCTION_EFFECTS 0
#define KLB_NONBLOCKING
#define KLB_NONALLOCATING
#define KLB_EFFECTS_SUPPRESS_BEGIN
#define KLB_EFFECTS_SUPPRESS_END
#endif

// RTSan is active iff this TU was compiled with -fsanitize=realtime.
#if defined(__has_feature)
#if __has_feature(realtime_sanitizer)
#include <sanitizer/rtsan_interface.h>
#define KLB_EFFECTS_RTSAN 1
#endif
#endif
#ifndef KLB_EFFECTS_RTSAN
#define KLB_EFFECTS_RTSAN 0
#endif

// The escape registry runs in debug builds only: Release hot paths must
// not pay for bookkeeping, and the registry's consumer (zero_alloc_test's
// documented-escapes assertion) runs in the Debug CI lanes.
#ifndef KLB_EFFECTS_REGISTRY
#ifdef NDEBUG
#define KLB_EFFECTS_REGISTRY 0
#else
#define KLB_EFFECTS_REGISTRY 1
#endif
#endif

namespace klb::util::effects {

/// Every sanctioned KLB_EFFECT_ESCAPE site, by name. Adding an escape means
/// adding it here AND to the README's justification table; the debug-build
/// registry + zero_alloc_test reject any site not on this list. Keep the
/// names stable — they are the audit trail for "where may the packet path
/// still block or allocate, and why".
inline constexpr const char* kDocumentedEscapeSites[] = {
    // lb/epoch.cpp — first pin on a thread seeds its slot hint from the
    // thread id (TLS + pthread_self); later pins are pure CAS.
    "epoch.pin_seed",
    // lb/epoch.cpp — all 64 slots busy: yield and rescan. Only reachable
    // with >64 concurrently pinned threads.
    "epoch.pin_stall",
    // lb/mux.cpp — pinning a new flow writes a FlowTable slot; it
    // allocates only when the shard's slot array grows (amortized
    // doubling), never per connection.
    "flow.pin_insert",
    // lb/mux.cpp — stage D: the policy pick (a virtual call; policies may
    // rebuild caches). Reached only by policies without a maglev table,
    // one packet at a time.
    "mux.pick",
    // lb/mux.cpp — inline drain completion: the sweep is control-plane
    // code that builds and publishes a generation.
    "mux.drain_sweep",
    // lb/mux.cpp — budgeted GC sweep hoisted off the per-packet path; runs
    // at most once per gc-interval and collects its reclaims in a vector.
    "mux.maybe_gc",
    // lb/policy.cpp — usable-index cache rebuild after invalidate(); a
    // steady-state pick takes the cached branch.
    "policy.usable_rebuild",
    // net/fabric.cpp — the observation tap is a type-erased std::function
    // installed by benches; the default (none) is one pointer test.
    "fabric.tap",
    // net/fabric.cpp — post-staging enqueue tail: copies the message into
    // an inline event callback, or the burst into a recycled buffer, and
    // schedules it. It allocates only for a payload past the string's
    // small buffer, or at a new high-water mark of the event slab, heap or
    // spare-buffer list. Blackhole-mode benches (the packet-path rate
    // measurements) never reach it.
    "fabric.enqueue",
};

inline constexpr std::size_t kDocumentedEscapeCount =
    sizeof(kDocumentedEscapeSites) / sizeof(kDocumentedEscapeSites[0]);

/// True when `site` appears in kDocumentedEscapeSites (string compare, so
/// it works across TU-distinct literals).
bool site_documented(const char* site);

/// Record that `site` executed (idempotent; lock-free and allocation-free
/// so it is legal inside the very lanes it audits). Undocumented sites are
/// still recorded — the test asserts they never appear.
void note_escape(const char* site);

/// Snapshot the distinct sites recorded so far into `out` (up to `cap`);
/// returns how many there are in total.
std::size_t escape_sites(const char** out, std::size_t cap);

constexpr bool registry_enabled() { return KLB_EFFECTS_REGISTRY != 0; }

/// RAII body of KLB_EFFECT_ESCAPE: suspends RTSan's realtime context for
/// the enclosed statements and (debug builds) records the site. In a
/// Release build without RTSan this compiles to nothing.
class ScopedEffectEscape {
 public:
  explicit ScopedEffectEscape(const char* site) {
#if KLB_EFFECTS_RTSAN
    __rtsan_disable();
#endif
#if KLB_EFFECTS_REGISTRY
    note_escape(site);
#else
    (void)site;
#endif
  }
  ~ScopedEffectEscape() {
#if KLB_EFFECTS_RTSAN
    __rtsan_enable();
#endif
  }
  ScopedEffectEscape(const ScopedEffectEscape&) = delete;
  ScopedEffectEscape& operator=(const ScopedEffectEscape&) = delete;
};

}  // namespace klb::util::effects

/// The sanctioned hole in an effect contract. `site` is a string literal
/// that must appear in kDocumentedEscapeSites; the remaining arguments are
/// the statements to exempt (braces welcome — commas are handled).
/// Declarations inside do not outlive the escape: assign to variables
/// declared before it when a result must cross the boundary.
#define KLB_EFFECT_ESCAPE(site, ...)                                  \
  do {                                                                \
    KLB_EFFECTS_SUPPRESS_BEGIN                                        \
    ::klb::util::effects::ScopedEffectEscape klb_effects_scope{site}; \
    __VA_ARGS__;                                                      \
    KLB_EFFECTS_SUPPRESS_END                                          \
  } while (0)
