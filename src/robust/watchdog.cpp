#include "robust/watchdog.hpp"

namespace autosva::robust {

namespace {

/// Scanner cadence. Deadlines are enforced to within one period; 20ms is
/// negligible against second-scale budgets and keeps the thread idle.
constexpr std::chrono::milliseconds kScanPeriod{20};

void fireSlot(std::atomic<bool>& token, std::atomic<uint8_t>& cause, Watchdog::Cause why) {
    // Cause before token: a reader that observes the token fired is
    // guaranteed (seq_cst) to observe a non-None cause.
    uint8_t expected = 0;
    cause.compare_exchange_strong(expected, static_cast<uint8_t>(why));
    token.store(true);
}

} // namespace

Watchdog::Watchdog(const Config& cfg) : cfg_(cfg), epoch_(Clock::now()) {
    // A stop flag already raised (or a budget already spent) fires the run
    // token before any work starts, not one scan period into it.
    {
        std::lock_guard<std::mutex> lock(mu_);
        scanLocked(epoch_);
    }
    thread_ = std::thread([this] { scanLoop(); });
}

Watchdog::~Watchdog() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

Watchdog::JobGuard Watchdog::guardJob() {
    std::lock_guard<std::mutex> lock(mu_);
    Slot* slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = &slots_.emplace_back();
    }
    slot->cause.store(0);
    slot->token.store(false);
    slot->start = Clock::now();
    slot->active = true;
    // Work registered after the run already expired starts pre-fired, so
    // the remaining jobs drain as immediate Interrupted results.
    if (runToken_.load()) fireSlot(slot->token, slot->cause, runCause());
    return JobGuard(this, slot);
}

void Watchdog::JobGuard::release() {
    if (wd_ != nullptr && slot_ != nullptr) wd_->releaseSlot(slot_);
    wd_ = nullptr;
    slot_ = nullptr;
}

void Watchdog::releaseSlot(Slot* slot) {
    std::lock_guard<std::mutex> lock(mu_);
    slot->active = false;
    freeSlots_.push_back(slot);
}

void Watchdog::fireRunLocked(Cause cause) {
    uint8_t expected = 0;
    runCause_.compare_exchange_strong(expected, static_cast<uint8_t>(cause));
    runToken_.store(true);
    for (Slot& slot : slots_)
        if (slot.active) fireSlot(slot.token, slot.cause, cause);
}

void Watchdog::scanLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!shutdown_) {
        cv_.wait_for(lock, kScanPeriod);
        if (shutdown_) break;
        scanLocked(Clock::now());
    }
}

void Watchdog::scanLocked(Clock::time_point now) {
    if (!runToken_.load()) {
        if (cfg_.externalStop != nullptr && cfg_.externalStop->load())
            fireRunLocked(Cause::ExternalStop);
        else if (cfg_.runBudgetSeconds > 0.0 &&
                 std::chrono::duration<double>(now - epoch_).count() >= cfg_.runBudgetSeconds)
            fireRunLocked(Cause::RunBudget);
    }
    if (cfg_.obligationTimeoutSeconds > 0.0) {
        for (Slot& slot : slots_) {
            if (!slot.active || slot.token.load()) continue;
            if (std::chrono::duration<double>(now - slot.start).count() >=
                cfg_.obligationTimeoutSeconds) {
                fireSlot(slot.token, slot.cause, Cause::JobTimeout);
                jobTimeouts_.fetch_add(1);
            }
        }
    }
}

} // namespace autosva::robust
