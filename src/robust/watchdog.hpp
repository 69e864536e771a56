// Wall-clock watchdog: one background thread that enforces the run-level
// `--time-budget` and per-obligation `--obligation-timeout` deadlines and
// relays external stop requests (SIGINT/SIGTERM) into the engine, by
// raising sticky cancellation tokens that solvers poll (SatSolver's
// bindWatchdog slot, PdrOptions::watchdog). The watchdog never kills
// threads and never touches solver state — expiry only flips an atomic,
// and every in-flight solve unwinds through its existing Interrupted
// path, so a deadline degrades obligations to Unknown instead of wedging
// the pool or tearing down the process.
//
// Deadline semantics:
//  - The run budget clock starts at Watchdog construction. On expiry (or
//    an external stop) the run token fires, every active job token fires,
//    and every job guard acquired afterwards starts pre-fired — remaining
//    work drains as immediate Interrupted results, so the report still
//    covers every obligation.
//  - The per-obligation clock starts when its guard is acquired. The
//    scheduler guards only an obligation's PDR stage, so that is what the
//    deadline bounds. Batched-BMC sweeps are excluded (one solver serves
//    many jobs in lockstep, so per-job wall attribution would
//    overcharge); they are bounded by the run budget via runToken().
//
// Cause attribution: each fired token records why it fired (job timeout
// vs. run budget vs. external stop); the scheduler maps that to the
// per-property UnknownReason. Token addresses are stable for the
// watchdog's lifetime (slots live in a deque and are never destroyed), so
// solvers may hold a token pointer briefly past its guard — but guards
// must not outlive the Watchdog itself.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace autosva::robust {

class Watchdog {
public:
    enum class Cause : uint8_t {
        None = 0,     ///< Token never fired.
        JobTimeout,   ///< Per-obligation deadline (--obligation-timeout).
        RunBudget,    ///< Whole-run deadline (--time-budget).
        ExternalStop, ///< External stop flag (SIGINT/SIGTERM).
    };

    struct Config {
        double runBudgetSeconds = 0.0;         ///< 0 = unlimited.
        double obligationTimeoutSeconds = 0.0; ///< 0 = unlimited.
        const std::atomic<bool>* externalStop = nullptr; ///< Optional signal flag.
    };

private:
    using Clock = std::chrono::steady_clock;

    /// One registered job's scanner slot. Slots are pooled and reused but
    /// never destroyed, so token addresses stay valid for the watchdog's
    /// whole lifetime.
    struct Slot {
        std::atomic<bool> token{false};
        std::atomic<uint8_t> cause{0};
        Clock::time_point start{};
        bool active = false;
    };

public:
    /// Starts the scanner thread; the run-budget clock starts now.
    explicit Watchdog(const Config& cfg);
    /// Stops and joins the scanner. Every JobGuard must be gone by now.
    ~Watchdog();
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    /// RAII registration of one job with the scanner. Default-constructed
    /// guards (no watchdog configured) are inert: null token, None cause.
    class JobGuard {
    public:
        JobGuard() = default;
        JobGuard(JobGuard&& other) noexcept { swapWith(other); }
        JobGuard& operator=(JobGuard&& other) noexcept {
            if (this != &other) {
                release();
                swapWith(other);
            }
            return *this;
        }
        JobGuard(const JobGuard&) = delete;
        JobGuard& operator=(const JobGuard&) = delete;
        ~JobGuard() { release(); }

        /// Sticky cancellation token to bind into this job's solvers;
        /// nullptr for an inert guard.
        [[nodiscard]] const std::atomic<bool>* token() const {
            return slot_ ? &slot_->token : nullptr;
        }
        /// Why the token fired (None if it has not).
        [[nodiscard]] Cause cause() const {
            if (slot_ == nullptr || !slot_->token.load()) return Cause::None;
            return static_cast<Cause>(slot_->cause.load());
        }

    private:
        friend class Watchdog;
        JobGuard(Watchdog* wd, Slot* slot) : wd_(wd), slot_(slot) {}
        void release();
        void swapWith(JobGuard& other) noexcept {
            std::swap(wd_, other.wd_);
            std::swap(slot_, other.slot_);
        }
        Watchdog* wd_ = nullptr;
        Slot* slot_ = nullptr;
    };

    /// Registers one obligation-sized unit of work under the per-job
    /// deadline, whose clock starts now.
    [[nodiscard]] JobGuard guardJob();

    /// The run-level token: fires on run-budget expiry or external stop
    /// (never on per-job timeouts). Bind into solvers that serve many
    /// jobs at once (batched BMC).
    [[nodiscard]] const std::atomic<bool>* runToken() const { return &runToken_; }
    [[nodiscard]] bool runExpired() const { return runToken_.load(); }
    [[nodiscard]] Cause runCause() const { return static_cast<Cause>(runCause_.load()); }

    /// Number of per-job deadline firings so far (JobTimeout only).
    [[nodiscard]] uint64_t jobTimeouts() const { return jobTimeouts_.load(); }

private:
    void scanLoop();
    /// One scan: fires the run token on an external stop or a spent run
    /// budget, and every job token past its deadline. Requires mu_ held.
    void scanLocked(Clock::time_point now);
    void fireRunLocked(Cause cause); ///< Requires mu_ held.
    void releaseSlot(Slot* slot);

    Config cfg_;
    Clock::time_point epoch_;
    std::atomic<bool> runToken_{false};
    std::atomic<uint8_t> runCause_{0};
    std::atomic<uint64_t> jobTimeouts_{0};

    std::mutex mu_;
    std::condition_variable cv_;
    bool shutdown_ = false;
    std::deque<Slot> slots_; ///< Stable addresses; never destroyed.
    std::vector<Slot*> freeSlots_;
    std::thread thread_;
};

} // namespace autosva::robust
