// Lightweight invariant checks for the tcsync runtime.
//
// Two tiers, by path cost:
//
//  * TCS_CHECK / TCS_CHECK_MSG — enabled in ALL build types. A violated
//    runtime invariant in a TM implementation silently corrupts user data, so
//    the branch is always worth it on the paths where these are used: slow
//    paths (serial fallback, OrElse partial rollback, condvar signal plumbing)
//    and commit-time validation plumbing. If an invariant guards in-place data
//    mutation or lock release, it belongs in this tier — see the promoted
//    checks in eager_stm.cc / lazy_stm.cc / sim_htm.cc PartialRollback.
//
//  * TCS_DCHECK / TCS_DCHECK_MSG — debug-only, allowed on per-access fast
//    paths (transactional Read/Write entry, raw word access). Compiled away
//    unless one of the following enables it:
//      - !NDEBUG             (Debug / RelWithDebInfo-without-NDEBUG builds)
//      - TCS_FORCE_DCHECKS   (opt-in for release-mode soak runs)
//      - TCS_PROTOCOL_CHECKS (a protocol-checked build is a correctness run;
//                             disabled DCHECKs there would hide exactly the
//                             local invariants whose protocol-level shadows
//                             the checker verifies)
//    The disabled form still compiles (but never evaluates) the condition, so
//    a DCHECK-only variable does not become an unused-variable warning and
//    bit-rotted conditions fail the build in every configuration.
//
// Hot-path files tagged `lint:hot-path` additionally ban TCS_DCHECK inside
// loops (tools/lint_tm_discipline.py): a Debug-only check in a per-access loop
// distorts Debug timing enough to mask interleavings, which is when DCHECK
// coverage is most needed.
#ifndef TCS_COMMON_ASSERT_H_
#define TCS_COMMON_ASSERT_H_

#include <cstdio>
#include <cstdlib>

#define TCS_CHECK(cond)                                                              \
  do {                                                                               \
    if (!(cond)) {                                                                   \
      std::fprintf(stderr, "TCS_CHECK failed: %s at %s:%d\n", #cond, __FILE__,       \
                   __LINE__);                                                        \
      std::abort();                                                                  \
    }                                                                                \
  } while (0)

#define TCS_CHECK_MSG(cond, msg)                                                     \
  do {                                                                               \
    if (!(cond)) {                                                                   \
      std::fprintf(stderr, "TCS_CHECK failed: %s (%s) at %s:%d\n", #cond, msg,       \
                   __FILE__, __LINE__);                                              \
      std::abort();                                                                  \
    }                                                                                \
  } while (0)

#if !defined(NDEBUG) || defined(TCS_FORCE_DCHECKS) || TCS_PROTOCOL_CHECKS
#define TCS_DCHECK(cond) TCS_CHECK(cond)
#define TCS_DCHECK_MSG(cond, msg) TCS_CHECK_MSG(cond, msg)
#else
#define TCS_DCHECK(cond) \
  do {                   \
    if (false) {         \
      (void)(cond);      \
    }                    \
  } while (0)
#define TCS_DCHECK_MSG(cond, msg) \
  do {                            \
    if (false) {                  \
      (void)(cond);               \
      (void)(msg);                \
    }                             \
  } while (0)
#endif

#endif  // TCS_COMMON_ASSERT_H_
