/**
 * @file
 * Compile-time-gated invariant auditing for the whole tree.
 *
 * `URSA_CHECK(cond, component, msg)` is the project's replacement for
 * bare `assert()`: it stays active in Release builds (the default
 * check level is 1), produces a structured violation report carrying
 * the component tag, the current simulated time and the failed
 * condition, and can be trapped by tests through ScopedCapture so
 * violation-injection tests can prove each check actually fires.
 *
 * Levels (CMake cache option URSA_CHECK_LEVEL, default 1):
 *   0  all checks compiled out (conditions not evaluated);
 *   1  cheap O(1) invariants on the hot path (<10% events/sec cost);
 *   2  adds expensive audits (full event-heap scans, periodic
 *      conservation sweeps) via URSA_CHECK_SLOW — the CI
 *      "Debug+checks" leg builds at this level.
 *
 * The layer is dependency-free (everything links against it, including
 * ursa_stats) and thread-safe: violation handling goes through a
 * thread-local capture stack plus a process-wide atomic counter, so
 * parallel exploration under URSA_THREADS=8 stays TSan-clean.
 */

#ifndef URSA_CHECK_CHECK_H
#define URSA_CHECK_CHECK_H

#include <cstdint>
#include <vector>

#ifndef URSA_CHECK_LEVEL
#define URSA_CHECK_LEVEL 1
#endif

namespace ursa::check
{

/** One failed invariant, as delivered to handlers and captures. */
struct Violation
{
    const char *component; ///< e.g. "sim.event_queue"
    const char *message;   ///< human-readable invariant statement
    const char *condition; ///< stringified failed condition
    const char *file;
    int line;
    /// Simulated time (us) of the active event loop on this thread at
    /// the moment of violation; -1 outside any simulation.
    std::int64_t simTime;
};

/**
 * Report a violation. If a ScopedCapture is active on this thread the
 * violation is recorded and control returns to the caller (so
 * injection tests can observe it); otherwise a structured report is
 * written to stderr and the process aborts.
 */
void fail(const char *component, const char *message,
          const char *condition, const char *file, int line);

/** Process-wide count of violations since start (atomic). */
std::uint64_t violationCount();

/**
 * Record the simulated time of the event loop driving this thread;
 * the kernel calls this as the clock advances so violation reports
 * can carry sim time. Costs one thread-local store.
 */
void noteSimTime(std::int64_t t);

/** Last noted simulated time on this thread (-1 if none). */
std::int64_t currentSimTime();

/**
 * RAII trap recording this thread's violations instead of aborting.
 * Nests (innermost capture wins); used by violation-injection tests:
 *
 *   check::ScopedCapture trap;
 *   queue.corruptOrderForTest();
 *   queue.runUntil(until);
 *   EXPECT_TRUE(trap.sawComponent("sim.event_queue"));
 */
class ScopedCapture
{
  public:
    ScopedCapture();
    ~ScopedCapture();
    ScopedCapture(const ScopedCapture &) = delete;
    ScopedCapture &operator=(const ScopedCapture &) = delete;

    const std::vector<Violation> &violations() const { return violations_; }
    bool empty() const { return violations_.empty(); }

    /** True when any recorded violation carries this component tag. */
    bool sawComponent(const char *component) const;

    void record(const Violation &v) { violations_.push_back(v); }

  private:
    ScopedCapture *prev_;
    std::vector<Violation> violations_;
};

} // namespace ursa::check

// A disabled check must still parse its operands (so level-0 builds
// cannot rot) without evaluating them.
#define URSA_CHECK_UNUSED_(cond) ((void)sizeof(!(cond)))

#if URSA_CHECK_LEVEL >= 1
#define URSA_CHECK(cond, component, msg)                                  \
    do {                                                                  \
        if (!(cond))                                                      \
            ::ursa::check::fail(component, msg, #cond, __FILE__,          \
                                __LINE__);                                \
    } while (0)
#else
#define URSA_CHECK(cond, component, msg) URSA_CHECK_UNUSED_(cond)
#endif

#if URSA_CHECK_LEVEL >= 2
#define URSA_CHECK_SLOW(cond, component, msg)                             \
    do {                                                                  \
        if (!(cond))                                                      \
            ::ursa::check::fail(component, msg, #cond, __FILE__,          \
                                __LINE__);                                \
    } while (0)
#else
#define URSA_CHECK_SLOW(cond, component, msg) URSA_CHECK_UNUSED_(cond)
#endif

#endif // URSA_CHECK_CHECK_H
