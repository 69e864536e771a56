// Robustness-layer tests: deterministic fault injection (site-addressed
// FaultPlan), the wall-clock watchdog (per-obligation timeout, run budget,
// external stop), graceful cache degradation under injected and real I/O
// failures, deadline-degraded engine runs that still cover every
// obligation, and crash recovery — a budget-killed run must leave a cache a
// warm rerun completes from, never a poisoned one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <unistd.h>

#include "cache/proof_artifact.hpp"
#include "cache/store.hpp"
#include "core/autosva.hpp"
#include "designs/designs.hpp"
#include "formal/scheduler.hpp"
#include "robust/faultinject.hpp"
#include "robust/watchdog.hpp"
#include "sva/report.hpp"

namespace {

using namespace autosva;
using formal::EngineOptions;
using formal::Status;
using formal::UnknownReason;
using robust::FaultPlan;
using robust::FaultScope;
using robust::FaultSite;
using robust::Watchdog;

namespace fs = std::filesystem;

/// Unique per-test temp directory, removed on destruction.
struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("autosva_test_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    [[nodiscard]] std::string str() const { return path.string(); }
    [[nodiscard]] fs::path logPath() const { return path / "proofs.bin"; }
};

/// Full design+FT elaboration of a registered paper design (including its
/// dependency modules, e.g. the MMU instantiating PTW and TLBs).
std::unique_ptr<ir::Design> elabDesignWithFT(const designs::DesignInfo& info) {
    util::DiagEngine diags;
    core::FormalTestbench ft = core::generateFT(info.rtl, {}, diags);
    return core::elaborateWithFT(designs::rtlSources(info), ft, {}, diags,
                                 /*tieReset=*/true);
}

/// Spin-waits (with a hard deadline) until `pred` holds; returns whether
/// it ever did. Keeps the timing-sensitive watchdog tests flake-free: we
/// assert "fires eventually, with the right cause", never exact latency.
template <typename Pred>
bool eventually(Pred pred, double seconds = 5.0) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
}

cache::ProofArtifact provenArtifact(uint64_t structKey) {
    cache::ProofArtifact art;
    art.structKey = structKey;
    art.status = Status::Proven;
    art.depth = 3;
    art.lemmas.push_back({{{"q[0]", true}}});
    return art;
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

TEST(FaultPlan, FiresExactlyOnceAtTheArmedHit) {
    FaultPlan plan;
    ASSERT_EQ(FaultPlan::parseSpec("solver-interrupt:3", plan), "");
    FaultScope scope(plan);
    // Hits 1 and 2 pass, hit 3 fires, hits 4+ pass again: exactly once.
    EXPECT_FALSE(robust::faultFire(FaultSite::SolverInterrupt));
    EXPECT_FALSE(robust::faultFire(FaultSite::SolverInterrupt));
    EXPECT_TRUE(robust::faultFire(FaultSite::SolverInterrupt));
    EXPECT_FALSE(robust::faultFire(FaultSite::SolverInterrupt));
    EXPECT_EQ(plan.hits(FaultSite::SolverInterrupt), 4u);
    EXPECT_TRUE(plan.fired(FaultSite::SolverInterrupt));
    EXPECT_TRUE(plan.anyFired());
    // Unarmed sites count hits but never fire.
    EXPECT_FALSE(robust::faultFire(FaultSite::CacheRead));
    EXPECT_FALSE(plan.fired(FaultSite::CacheRead));
    EXPECT_NE(plan.summary().find("solver-interrupt: armed@3"), std::string::npos);
}

TEST(FaultPlan, ParsesMultiSiteSpecsAndRejectsBadOnes) {
    FaultPlan plan;
    ASSERT_EQ(FaultPlan::parseSpec("cache-write:1,bitblast-alloc:2", plan), "");
    {
        FaultScope scope(plan);
        EXPECT_TRUE(robust::faultFire(FaultSite::CacheWrite));
        EXPECT_FALSE(robust::faultFire(FaultSite::BitblastAlloc));
        EXPECT_TRUE(robust::faultFire(FaultSite::BitblastAlloc));
    }
    FaultPlan bad;
    EXPECT_NE(FaultPlan::parseSpec("no-such-site:1", bad), "");
    EXPECT_NE(FaultPlan::parseSpec("cache-write", bad), "");
    EXPECT_NE(FaultPlan::parseSpec("cache-write:0", bad), "");
    EXPECT_NE(FaultPlan::parseSpec("cache-write:x", bad), "");
    // The unknown-site diagnostic must name the valid sites.
    EXPECT_NE(FaultPlan::parseSpec("no-such-site:1", bad).find("solver-interrupt"),
              std::string::npos);
}

TEST(FaultPlan, DisarmedProcessNeverFires) {
    // No plan active: the hot-path hook is a null-pointer test.
    ASSERT_EQ(FaultPlan::active(), nullptr);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(robust::faultFire(FaultSite::SolverInterrupt));
    // Active but empty plan: hits count, nothing fires.
    FaultPlan plan;
    FaultScope scope(plan);
    EXPECT_FALSE(robust::faultFire(FaultSite::CacheWrite));
    EXPECT_EQ(plan.hits(FaultSite::CacheWrite), 1u);
    EXPECT_FALSE(plan.anyFired());
    EXPECT_EQ(plan.summary(), "");
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(Robust, WatchdogFiresObligationTimeoutWithJobCause) {
    Watchdog::Config cfg;
    cfg.obligationTimeoutSeconds = 0.05;
    Watchdog wd(cfg);
    Watchdog::JobGuard guard = wd.guardJob();
    ASSERT_NE(guard.token(), nullptr);
    EXPECT_FALSE(guard.token()->load());
    ASSERT_TRUE(eventually([&] { return guard.token()->load(); }));
    EXPECT_EQ(guard.cause(), Watchdog::Cause::JobTimeout);
    EXPECT_GE(wd.jobTimeouts(), 1u);
    // A per-job deadline never fires the run-level token.
    EXPECT_FALSE(wd.runExpired());
    EXPECT_EQ(wd.runCause(), Watchdog::Cause::None);
}

TEST(Robust, WatchdogRunBudgetFiresActiveAndFutureGuards) {
    Watchdog::Config cfg;
    cfg.runBudgetSeconds = 0.05;
    Watchdog wd(cfg);
    Watchdog::JobGuard active = wd.guardJob();
    ASSERT_TRUE(eventually([&] { return wd.runExpired(); }));
    EXPECT_EQ(wd.runCause(), Watchdog::Cause::RunBudget);
    ASSERT_TRUE(eventually([&] { return active.token()->load(); }));
    EXPECT_EQ(active.cause(), Watchdog::Cause::RunBudget);
    // Guards acquired after expiry start pre-fired: remaining work drains
    // as immediate Interrupted results instead of running to completion.
    Watchdog::JobGuard late = wd.guardJob();
    ASSERT_NE(late.token(), nullptr);
    EXPECT_TRUE(late.token()->load());
    EXPECT_EQ(late.cause(), Watchdog::Cause::RunBudget);
}

TEST(Robust, WatchdogRelaysExternalStop) {
    std::atomic<bool> stop{false};
    Watchdog::Config cfg;
    cfg.externalStop = &stop;
    Watchdog wd(cfg);
    Watchdog::JobGuard guard = wd.guardJob();
    // No deadlines configured: nothing fires until the flag is raised.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_FALSE(wd.runExpired());
    EXPECT_FALSE(guard.token()->load());
    stop.store(true);
    ASSERT_TRUE(eventually([&] { return wd.runExpired(); }));
    EXPECT_EQ(wd.runCause(), Watchdog::Cause::ExternalStop);
    ASSERT_TRUE(eventually([&] { return guard.token()->load(); }));
    EXPECT_EQ(guard.cause(), Watchdog::Cause::ExternalStop);
}

TEST(Robust, InertGuardIsSafeToUseEverywhere) {
    // No watchdog configured: guards are null-token, None-cause, and the
    // scheduler threads them through unconditionally.
    Watchdog::JobGuard inert;
    EXPECT_EQ(inert.token(), nullptr);
    EXPECT_EQ(inert.cause(), Watchdog::Cause::None);
    Watchdog::JobGuard moved = std::move(inert);
    EXPECT_EQ(moved.token(), nullptr);
}

// ---------------------------------------------------------------------------
// Cache degradation
// ---------------------------------------------------------------------------

TEST(Robust, UnwritableCacheDirDegradesToMemoryOnly) {
    // /dev/null is a file, so creating a directory under it fails for any
    // uid (permission bits alone are bypassed when the suite runs as root).
    cache::ProofCache store("/dev/null/autosva_nope");
    EXPECT_FALSE(store.persistent());
    EXPECT_NE(store.degradedReason().find("cannot create cache directory"),
              std::string::npos);
    // The degraded store still takes the full API without crashing.
    store.store(cache::Fingerprint{1, 2}, provenArtifact(42));
    EXPECT_FALSE(store.lookup(cache::Fingerprint{1, 2}).has_value());
}

TEST(Robust, InjectedCacheWriteFaultDropsPersistenceNotTheRun) {
    TempDir dir("wfault");
    FaultPlan plan;
    ASSERT_EQ(FaultPlan::parseSpec("cache-write:1", plan), "");
    FaultScope scope(plan);
    cache::ProofCache store(dir.str());
    EXPECT_TRUE(store.persistent()); // Healthy until the first append.
    store.store(cache::Fingerprint{1, 2}, provenArtifact(7));
    EXPECT_TRUE(plan.fired(FaultSite::CacheWrite));
    EXPECT_FALSE(store.persistent());
    EXPECT_NE(store.degradedReason().find("injected cache-write fault"),
              std::string::npos);
    // Degradation is one-shot and sticky; later stores are memory-only
    // no-ops, not crashes, and the reason keeps the *first* failure.
    store.store(cache::Fingerprint{3, 4}, provenArtifact(8));
    EXPECT_NE(store.degradedReason().find("cache-write"), std::string::npos);
    // Nothing after the header may have reached disk.
    std::error_code ec;
    uintmax_t size = fs::file_size(dir.logPath(), ec);
    if (!ec) {
        EXPECT_LE(size, 8u);
    }
}

TEST(Robust, InjectedCacheReadFaultIgnoresWarmLogButPreservesIt) {
    TempDir dir("rfault");
    {
        cache::ProofCache store(dir.str());
        store.store(cache::Fingerprint{5, 6}, provenArtifact(9));
    }
    uintmax_t warmSize = fs::file_size(dir.logPath());
    {
        FaultPlan plan;
        ASSERT_EQ(FaultPlan::parseSpec("cache-read:1", plan), "");
        FaultScope scope(plan);
        cache::ProofCache store(dir.str());
        EXPECT_FALSE(store.persistent());
        EXPECT_NE(store.degradedReason().find("cache-read"), std::string::npos);
        EXPECT_FALSE(store.lookup(cache::Fingerprint{5, 6}).has_value());
        // An unreadable log must not be appended to or truncated.
        store.store(cache::Fingerprint{7, 8}, provenArtifact(10));
    }
    EXPECT_EQ(fs::file_size(dir.logPath()), warmSize);
    // With the fault gone the log is intact and serves its entry again.
    cache::ProofCache reopened(dir.str());
    EXPECT_TRUE(reopened.persistent());
    EXPECT_EQ(reopened.degradedReason(), "");
    EXPECT_TRUE(reopened.lookup(cache::Fingerprint{5, 6}).has_value());
}

// ---------------------------------------------------------------------------
// Engine-level fault soundness
// ---------------------------------------------------------------------------

/// Status-by-name map of one scheduler run.
std::map<std::string, Status> runStatuses(const ir::Design& design,
                                          const EngineOptions& opts) {
    formal::ObligationScheduler scheduler(design, opts);
    std::map<std::string, Status> out;
    for (const auto& r : scheduler.run()) out[r.name] = r.status;
    return out;
}

TEST(Robust, InjectedSolverInterruptNeverFlipsAVerdict) {
    const auto& info = designs::design("ariane_tlb");
    auto design = elabDesignWithFT(info);
    EngineOptions opts;
    opts.jobs = 2;
    auto clean = runStatuses(*design, opts);
    ASSERT_FALSE(clean.empty());
    // Interrupt the N-th solve for several N: every verdict either matches
    // the clean run or honestly degrades to Unknown — never flips.
    for (uint64_t nth : {1u, 5u, 40u}) {
        FaultPlan plan;
        plan.arm(FaultSite::SolverInterrupt, nth);
        FaultScope scope(plan);
        auto faulted = runStatuses(*design, opts);
        ASSERT_EQ(faulted.size(), clean.size()) << "nth=" << nth;
        for (const auto& [name, status] : faulted)
            EXPECT_TRUE(status == clean.at(name) || status == Status::Unknown)
                << name << " flipped under solver-interrupt:" << nth;
    }
}

TEST(Robust, InjectedAllocFailureSurfacesAsBadAlloc) {
    const auto& info = designs::design("noc_buffer");
    auto design = elabDesignWithFT(info);
    FaultPlan plan;
    plan.arm(FaultSite::BitblastAlloc, 1);
    FaultScope scope(plan);
    // The scheduler bit-blasts at construction; the injected allocation
    // failure must unwind as std::bad_alloc (the CLI maps it to a clean
    // "out of memory" exit), not crash or produce a partial engine.
    EXPECT_THROW(formal::ObligationScheduler(*design, EngineOptions{}),
                 std::bad_alloc);
}

// ---------------------------------------------------------------------------
// Deadline-degraded runs
// ---------------------------------------------------------------------------

TEST(Robust, TimeBudgetDegradesButCoversEveryObligation) {
    // ariane_mmu needs tens of seconds unbudgeted; a 50ms budget must stop
    // it almost immediately while still reporting every obligation.
    const auto& info = designs::design("ariane_mmu");
    auto design = elabDesignWithFT(info);
    EngineOptions opts;
    opts.jobs = 2;
    opts.timeBudgetSeconds = 0.05;
    opts.obligationTimeoutSeconds = 0.02;
    formal::ObligationScheduler scheduler(*design, opts);
    auto t0 = std::chrono::steady_clock::now();
    auto results = scheduler.run();
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    // Budget + generous grace: expiry only cancels in-flight solves, it
    // never abandons them, so drain time is bounded but nonzero.
    EXPECT_LT(elapsed, 30.0);
    EXPECT_EQ(results.size(), design->obligations().size());
    sva::VerificationReport report;
    report.dutName = "ariane_mmu";
    report.results = results;
    report.engineStats = scheduler.stats();
    ASSERT_TRUE(report.degraded());
    size_t degraded = 0;
    for (const auto& r : results) {
        if (r.unknownReason == UnknownReason::None) continue;
        ++degraded;
        // Degraded rows are honest Unknowns with a deadline cause; decided
        // rows never carry a reason.
        EXPECT_EQ(r.status, Status::Unknown) << r.name;
        EXPECT_TRUE(r.unknownReason == UnknownReason::RunBudget ||
                    r.unknownReason == UnknownReason::Timeout)
            << r.name;
    }
    EXPECT_GT(degraded, 0u);
    EXPECT_EQ(report.engineStats.deadlineDegraded, degraded);
    EXPECT_EQ(report.engineStats.runStopCause,
              static_cast<uint64_t>(Watchdog::Cause::RunBudget));
}

// The --time-budget contract over a ladder of budgets on the Ariane MMU at
// engine defaults. Every budgeted run reports every obligation, ends within
// budget + grace, contradicts no verdict the unbudgeted run decides, and
// counts as degraded exactly the rows that carry a reason. Expiry cancels
// in-flight solves but never abandons them, so the grace bounds the drain;
// it gates prompt termination (seconds), not scheduler latency. A budget
// under half the unbudgeted wall clock must actually stop the run.
TEST(Robust, BudgetLadderNeverContradictsTheUnbudgetedRun) {
    constexpr double kGraceSeconds = 20.0;
    auto design = elabDesignWithFT(designs::design("ariane_mmu"));

    auto t0 = std::chrono::steady_clock::now();
    const auto reference = runStatuses(*design, EngineOptions{});
    const double referenceSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    ASSERT_FALSE(reference.empty());

    for (double budget : {0.05, 0.5, 2.0}) {
        SCOPED_TRACE("budget " + std::to_string(budget) + " s");
        EngineOptions opts;
        opts.timeBudgetSeconds = budget;
        formal::ObligationScheduler scheduler(*design, opts);
        t0 = std::chrono::steady_clock::now();
        const auto results = scheduler.run();
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

        EXPECT_EQ(results.size(), design->obligations().size());
        EXPECT_LE(wall, budget + kGraceSeconds);
        uint64_t degraded = 0;
        for (const auto& r : results) {
            if (r.unknownReason != UnknownReason::None) ++degraded;
            const auto ref = reference.find(r.name);
            ASSERT_NE(ref, reference.end()) << r.name;
            if (r.status != Status::Unknown && ref->second != Status::Unknown) {
                EXPECT_EQ(r.status, ref->second) << r.name;
            }
        }
        EXPECT_EQ(scheduler.stats().deadlineDegraded, degraded);
        if (2 * budget < referenceSeconds) {
            EXPECT_GT(degraded, 0u);
            EXPECT_EQ(scheduler.stats().runStopCause,
                      static_cast<uint64_t>(Watchdog::Cause::RunBudget));
        }
    }
}

TEST(Robust, PresetStopFlagDrainsRunAsInterrupted) {
    const auto& info = designs::design("ariane_mmu");
    auto design = elabDesignWithFT(info);
    std::atomic<bool> stop{true}; // SIGINT arrived before the run started.
    EngineOptions opts;
    opts.jobs = 2;
    opts.stopFlag = &stop;
    formal::ObligationScheduler scheduler(*design, opts);
    auto results = scheduler.run();
    EXPECT_EQ(results.size(), design->obligations().size());
    for (const auto& r : results) {
        if (r.unknownReason != UnknownReason::None) {
            EXPECT_EQ(r.unknownReason, UnknownReason::Interrupted) << r.name;
        }
    }
    EXPECT_EQ(scheduler.stats().runStopCause,
              static_cast<uint64_t>(Watchdog::Cause::ExternalStop));
}

// A fired run token leaves the BMC sweep's open jobs Unknown, and no guard
// covers a sweep to tag them: phase B stores its Frontier records before
// any chain link guards its job. The cache must receive no degraded
// Unknown. A stop flag raised before the run fires the token before the
// first sweep, so nothing is decided and nothing is stored.
TEST(Robust, StoppedRunCachesOnlyDecidedVerdicts) {
    const auto& info = designs::design("ariane_mmu");
    auto design = elabDesignWithFT(info);
    TempDir dir("stopped");
    std::atomic<bool> stop{true};
    EngineOptions opts;
    opts.jobs = 2;
    opts.stopFlag = &stop;
    opts.cacheDir = dir.str();
    formal::ObligationScheduler scheduler(*design, opts);
    auto results = scheduler.run();
    uint64_t decided = 0;
    for (const auto& r : results)
        if (r.status != Status::Unknown && r.status != Status::Skipped) ++decided;
    EXPECT_EQ(decided, 0u);
    EXPECT_EQ(scheduler.stats().cacheStores, 0u);
    EXPECT_EQ(scheduler.stats().runStopCause,
              static_cast<uint64_t>(Watchdog::Cause::ExternalStop));
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

TEST(Robust, BudgetKilledRunLeavesCacheAWarmRerunCompletesFrom) {
    const auto& info = designs::design("ariane_tlb");
    auto design = elabDesignWithFT(info);
    TempDir dir("recover");
    EngineOptions budgeted;
    budgeted.jobs = 1;
    budgeted.cacheDir = dir.str();
    budgeted.timeBudgetSeconds = 0.01;
    {
        // The "crash": a run killed mid-flight by its budget. Whatever it
        // decided before expiry is on disk; degraded Unknowns must NOT be.
        formal::ObligationScheduler scheduler(*design, budgeted);
        auto partial = scheduler.run();
        EXPECT_FALSE(partial.empty());
    }
    EngineOptions warm;
    warm.jobs = 1;
    warm.cacheDir = dir.str();
    formal::ObligationScheduler scheduler(*design, warm);
    sva::VerificationReport report;
    report.dutName = "ariane_tlb";
    report.results = scheduler.run();
    report.engineStats = scheduler.stats();
    // The unbudgeted rerun decides everything: had the first run cached a
    // degraded Unknown, it would resurface here as a cached Unknown.
    EXPECT_TRUE(report.allProven()) << report.str();
    EXPECT_FALSE(report.degraded());
    for (const auto& r : report.results)
        EXPECT_NE(r.status, Status::Unknown) << r.name;
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

TEST(Robust, DegradedReportRendersReasonsButKeepsCanonicalFormat) {
    sva::VerificationReport report;
    report.dutName = "toy";
    formal::PropertyResult proven;
    proven.name = "p_ok";
    proven.kind = ir::Obligation::Kind::SafetyBad;
    proven.status = Status::Proven;
    proven.depth = 4;
    formal::PropertyResult timedOut;
    timedOut.name = "p_slow";
    timedOut.kind = ir::Obligation::Kind::Justice;
    timedOut.status = Status::Unknown;
    timedOut.unknownReason = UnknownReason::Timeout;
    report.results = {proven, timedOut};

    EXPECT_TRUE(report.degraded());
    std::string table = report.str();
    EXPECT_NE(table.find("unknown(timeout)"), std::string::npos);
    EXPECT_NE(table.find("Degraded run:"), std::string::npos);
    // canonical() must not grow degradation annotations: a degraded run is
    // excluded from the identity contract, not given a new format.
    std::string canon = report.canonical();
    EXPECT_EQ(canon.find("timeout"), std::string::npos);
    EXPECT_EQ(canon,
              "p_ok|safety|proven|-|0|-1\n"
              "p_slow|liveness|unknown|-|0|-1\n");

    report.results[1].unknownReason = UnknownReason::None;
    EXPECT_FALSE(report.degraded());
    EXPECT_EQ(report.str().find("Degraded run:"), std::string::npos);
}

TEST(Robust, UnknownReasonNamesAreStable) {
    EXPECT_STREQ(formal::unknownReasonName(UnknownReason::None), "none");
    EXPECT_STREQ(formal::unknownReasonName(UnknownReason::Timeout), "timeout");
    EXPECT_STREQ(formal::unknownReasonName(UnknownReason::RunBudget), "run-budget");
    EXPECT_STREQ(formal::unknownReasonName(UnknownReason::Interrupted), "interrupted");
}

} // namespace
