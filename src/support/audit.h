#ifndef MUGI_SUPPORT_AUDIT_H_
#define MUGI_SUPPORT_AUDIT_H_

/**
 * @file
 * Debug invariant-auditor plumbing.
 *
 * The concurrency-bearing subsystems expose `check_invariants()`
 * methods that recompute their accounting from scratch (refcount
 * totals vs slots in use, reservations vs committed blocks, ...) and
 * return a description of the first violation -- an empty string
 * means the structure is consistent.  Those checkers exist in every
 * build type so tests (and callers that want an error-return) can
 * always run them.
 *
 * MUGI_AUDIT_INVARIANTS gates the *automatic* audit calls wired into
 * hot paths (the end of every serve::Scheduler::step): 1 by default
 * in assert-enabled builds (Debug / CI), 0 under NDEBUG so release
 * builds pay nothing.  Override with -DMUGI_AUDIT_INVARIANTS=1 to
 * force audits into an optimized build.  A failed automatic audit
 * calls audit_failure(), which prints the violation and aborts --
 * drift in refcounted, copy-on-write block accounting is corruption,
 * not a recoverable condition.
 *
 * Thread-safety: audit_failure is reentrant (stateless, write + abort).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#ifndef MUGI_AUDIT_INVARIANTS
#ifdef NDEBUG
#define MUGI_AUDIT_INVARIANTS 0
#else
#define MUGI_AUDIT_INVARIANTS 1
#endif
#endif

namespace mugi {
namespace support {

/**
 * Whether assert() is compiled in (false under NDEBUG).  Tests key
 * runtime GTEST_SKIP()s on this instead of preprocessor-guarding
 * their bodies, so every test body compiles in every build type.
 */
#ifdef NDEBUG
inline constexpr bool kAssertsOn = false;
#else
inline constexpr bool kAssertsOn = true;
#endif

/** Report a failed invariant audit and abort. */
[[noreturn]] inline void
audit_failure(const char* where, const std::string& violation)
{
    std::fprintf(stderr, "mugi invariant audit failed in %s: %s\n",
                 where, violation.c_str());
    std::fflush(stderr);
    std::abort();
}

/** Abort iff @p violation is non-empty (one auditor call site). */
inline void
audit_or_abort(const char* where, const std::string& violation)
{
    if (!violation.empty()) {
        audit_failure(where, violation);
    }
}

}  // namespace support
}  // namespace mugi

#endif  // MUGI_SUPPORT_AUDIT_H_
