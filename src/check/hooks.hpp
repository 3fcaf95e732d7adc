/**
 * @file
 * Test-only violation hooks of the invariant sanitizer: one-shot
 * flags that arm a single deliberate protocol violation inside the
 * pipeline, so the sanitizer's *detection* path can be exercised end
 * to end (seeded-violation tests, the CI exit-7 smoke). Armed through
 * the exec-only `check.violate` knob (docs/VALIDATION.md); an armed
 * hook fires once per run, at the first site that consumes it.
 */

#ifndef GEX_CHECK_HOOKS_HPP
#define GEX_CHECK_HOOKS_HPP

#include <string>

namespace gex::check {

/** Consume a one-shot hook: true exactly once after arming. */
inline bool
take(bool &flag)
{
    if (!flag)
        return false;
    flag = false;
    return true;
}

/** The deliberate violations the test harness can arm (at most one). */
struct ViolationHooks {
    /** Issue stage: release a replay-queue source hold at operand
     *  read, violating the scheme's hold-until-last-check protocol. */
    bool breakRqHold = false;
    /** Operand-collect: drop an operand-log release, leaking the
     *  partition bytes the entry held. */
    bool leakLogEntry = false;
    /** Issue stage: schedule an event into the past, breaking the
     *  event heap's (cycle, seq) monotonicity. */
    bool corruptEventSeq = false;
    /** Commit stage: emit a second Committed event for the same
     *  dynamic instruction (exactly-once retirement violation). */
    bool doubleCommit = false;

    /** Arm the named hook ("none" arms nothing); ConfigError on an
     *  unknown name (defined out of line, src/check/sanitizer.cpp). */
    void arm(const std::string &name);
};

} // namespace gex::check

#endif // GEX_CHECK_HOOKS_HPP
