// Wall-clock deadlines and orderly stops, checked where the solvers
// already check for cancellation: SatSolver at solve entry and at conflict
// and restart boundaries (bindDeadline), and PDR between its steps
// (PdrOptions::deadline). No thread enforces them. A check reads the
// external stop flag, reads the steady clock only when the deadline has a
// time limit, and latches the first limit it finds passed as the
// deadline's cause. A latched deadline stays expired, so every later
// solve bound to it returns Interrupted at once and the search unwinds
// through its existing Interrupted path: a deadline degrades obligations
// to Unknown, it never kills a thread or touches solver state.
//
// The scheduler builds one run deadline in run(), where the --time-budget
// clock starts, carrying the stop flag (SIGINT/SIGTERM). It builds one job
// deadline per PDR-stage job, where that job's --obligation-timeout clock
// starts, with the run deadline as its parent. A job deadline checks its
// parent first, so work that starts after the run expired stops at its
// first check, and a run-level cause seen through a job is latched on the
// run too. Batched-BMC sweeps serve many jobs at once and bind the run
// deadline itself (per-job wall attribution inside a lockstep sweep would
// overcharge idle batch-mates).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace autosva::robust {

/// Why a run stopped work early, and so why a degraded obligation is
/// Unknown (formal::UnknownReason is this enum). None is the classic
/// bounds-exhausted Unknown — a *deterministic* function of the workload
/// and options, safe to cache and covered by the canonical-identity
/// contract. Every other cause is wall-clock- or operator-dependent (the
/// run was *degraded*): the verdict is still sound (never a wrong answer,
/// only a withheld one) but is excluded from the identity contract and
/// never stored in the proof cache — a timeout must not poison a later
/// warm rerun.
enum class StopCause : uint8_t {
    None = 0,    ///< Not stopped: bounds/budget exhausted deterministically.
    Timeout,     ///< Per-obligation deadline hit (--obligation-timeout).
    RunBudget,   ///< Whole-run deadline hit (--time-budget).
    Interrupted, ///< Orderly external stop (SIGINT/SIGTERM).
};

class Deadline {
public:
    using Clock = std::chrono::steady_clock;

    /// Expires `seconds` from now with cause `timeCause` (0 = no time
    /// limit), when `stopFlag` is raised (cause Interrupted), or when
    /// `parent` expires (its cause). Null pointers are absent limits; the
    /// flag and the parent must outlive this deadline.
    Deadline(double seconds, StopCause timeCause, const std::atomic<bool>* stopFlag = nullptr,
             const Deadline* parent = nullptr)
        : parent_(parent), stopFlag_(stopFlag), timeCause_(timeCause), seconds_(seconds),
          start_(Clock::now()) {}
    Deadline(const Deadline&) = delete;
    Deadline& operator=(const Deadline&) = delete;

    /// The check: true once a limit has passed. Checks the parent first,
    /// then the stop flag, then the clock, and latches the first cause it
    /// finds. Safe to call from any number of threads.
    [[nodiscard]] bool expired() const {
        if (cause() != StopCause::None) return true;
        if (parent_ != nullptr && parent_->expired()) return latch(parent_->cause());
        if (stopFlag_ != nullptr && stopFlag_->load()) return latch(StopCause::Interrupted);
        if (seconds_ > 0.0 &&
            std::chrono::duration<double>(Clock::now() - start_).count() >= seconds_)
            return latch(timeCause_);
        return false;
    }

    /// The latched cause: None until a check found a limit passed.
    [[nodiscard]] StopCause cause() const { return cause_.load(); }

private:
    /// Records `why` unless another check latched first; always true.
    bool latch(StopCause why) const {
        StopCause none = StopCause::None;
        cause_.compare_exchange_strong(none, why);
        return true;
    }

    const Deadline* parent_;
    const std::atomic<bool>* stopFlag_;
    StopCause timeCause_;
    double seconds_; ///< <= 0: no time limit.
    Clock::time_point start_;
    mutable std::atomic<StopCause> cause_{StopCause::None};
};

} // namespace autosva::robust
