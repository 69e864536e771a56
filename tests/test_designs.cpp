// Integration tests reproducing the paper's Table III: one test per
// evaluated module, checking the formal verdict matches the paper's
// outcome (proof / bug / bug-then-fix-then-proof).
#include <gtest/gtest.h>

#include "core/autosva.hpp"
#include "designs/designs.hpp"

namespace {

using namespace autosva;

struct RunResult {
    core::FormalTestbench ft;
    sva::VerificationReport report;
};

RunResult runDesign(const std::string& name, uint64_t bug, bool withExtension = true,
                    const std::vector<const core::FormalTestbench*>& subFts = {}) {
    const auto& info = designs::design(name);
    util::DiagEngine diags;
    core::AutoSvaOptions genOpts;
    core::FormalTestbench ft = core::generateFT(info.rtl, genOpts, diags);

    core::VerifyOptions vopts;
    // BMC runs at the default probe depth: PDR finds the deeper
    // counterexamples and its replay reports them at their shortest depth.
    // Keep the suite bounded: a capped PDR budget concludes in minutes (the
    // MMU's seeded lemma chain needs at most 105,019 queries a link).
    // Bug-hunting runs only need the CEX, so their PDR budget for
    // (untested) side proofs is capped lower.
    vopts.engine.pdrMaxQueries = 200000;
    if (bug != 0 || !withExtension) vopts.engine.pdrMaxQueries = 30000;
    if (info.hasBugParam) vopts.paramOverrides["BUG"] = bug;
    if (withExtension && !info.extensionSva.empty())
        vopts.extraSources.push_back(info.extensionSva);
    vopts.submoduleFts = subFts;

    RunResult rr{std::move(ft), {}};
    rr.report = core::verify(designs::rtlSources(info), rr.ft, vopts, diags);
    return rr;
}

// --- A1: PTW — 100% liveness/safety proof -------------------------------
TEST(Table3, A1_Ptw_FullProof) {
    RunResult rr = runDesign("ariane_ptw", 0);
    SCOPED_TRACE(rr.report.str());
    EXPECT_TRUE(rr.report.allProven());
    EXPECT_EQ(rr.report.outcomeSummary(), "100% liveness/safety properties proof");
}

// --- A2: TLB — 100% liveness/safety proof -------------------------------
TEST(Table3, A2_Tlb_FullProof) {
    RunResult rr = runDesign("ariane_tlb", 0);
    SCOPED_TRACE(rr.report.str());
    EXPECT_TRUE(rr.report.allProven());
}

// --- A3: MMU — ghost-response bug found, fix proven ----------------------
TEST(Table3, A3_Mmu_GhostResponseBugFound) {
    RunResult rr = runDesign("ariane_mmu", /*bug=*/1);
    SCOPED_TRACE(rr.report.str());
    ASSERT_TRUE(rr.report.anyFailed());
    // The ghost response violates "every response had a request".
    const auto* failure = rr.report.find("as__lsu_mmu_had_a_request");
    ASSERT_NE(failure, nullptr);
    EXPECT_EQ(failure->status, formal::Status::Failed);
    // The paper reports a 5-cycle trace for Bug1.
    EXPECT_LE(failure->depth, 8);
}

TEST(Table3, A3_Mmu_FixedFullProof) {
    RunResult rr = runDesign("ariane_mmu", /*bug=*/0);
    SCOPED_TRACE(rr.report.str());
    // The fix must flip the previously failing assertion to a proof with no
    // regressions anywhere ("bug-fix confidence", paper metric 4).
    EXPECT_FALSE(rr.report.anyFailed());
    const auto* ghost = rr.report.find("as__lsu_mmu_had_a_request");
    ASSERT_NE(ghost, nullptr);
    EXPECT_EQ(ghost->status, formal::Status::Proven);
    // The seeded lemma chain closes the deep fetch-liveness proofs too.
    EXPECT_TRUE(rr.report.allProven());
}

// The "interesting CEX" of §IV: without the added fairness assumption the
// fetch channel can starve behind LSU traffic.
TEST(Table3, A3_Mmu_FairnessCexWithoutAssumption) {
    RunResult rr = runDesign("ariane_mmu", /*bug=*/0, /*withExtension=*/false);
    SCOPED_TRACE(rr.report.str());
    const auto* fetchLive = rr.report.find("as__fetch_mmu_eventual_response");
    ASSERT_NE(fetchLive, nullptr);
    EXPECT_EQ(fetchLive->status, formal::Status::Failed);
    // The shortest starvation lasso, well inside the default BMC probe.
    EXPECT_EQ(fetchLive->depth, 4);
    EXPECT_EQ(fetchLive->trace.loopStart, 2);
}

// --- A4: LSU — hits the known bug (issue #538) ---------------------------
TEST(Table3, A4_Lsu_HitsKnownBug) {
    RunResult rr = runDesign("ariane_lsu", /*bug=*/1);
    SCOPED_TRACE(rr.report.str());
    const auto* live = rr.report.find("as__lsu_load_eventual_response");
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(live->status, formal::Status::Failed);
}

TEST(Table3, A4_Lsu_BugfixValidated) {
    RunResult rr = runDesign("ariane_lsu", /*bug=*/0);
    SCOPED_TRACE(rr.report.str());
    EXPECT_TRUE(rr.report.allProven());
}

// --- A5: I$ — hits the known bug (issue #474) ----------------------------
TEST(Table3, A5_Icache_HitsKnownBug) {
    RunResult rr = runDesign("ariane_icache", /*bug=*/1);
    SCOPED_TRACE(rr.report.str());
    const auto* live = rr.report.find("as__fetch_eventual_response");
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(live->status, formal::Status::Failed);
}

TEST(Table3, A5_Icache_BugfixValidated) {
    RunResult rr = runDesign("ariane_icache", /*bug=*/0);
    SCOPED_TRACE(rr.report.str());
    EXPECT_TRUE(rr.report.allProven());
}

// --- O1: NoC buffer — deadlock found and fixed ---------------------------
TEST(Table3, O1_NocBuffer_DeadlockFound) {
    RunResult rr = runDesign("noc_buffer", /*bug=*/1);
    SCOPED_TRACE(rr.report.str());
    const auto* live = rr.report.find("as__mem_engine_noc_eventual_response");
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(live->status, formal::Status::Failed);
}

TEST(Table3, O1_NocBuffer_FixProven) {
    RunResult rr = runDesign("noc_buffer", /*bug=*/0);
    SCOPED_TRACE(rr.report.str());
    EXPECT_TRUE(rr.report.allProven());
}

// --- O2: L1.5 slice — buffer proof, cache-level CEXs ----------------------
TEST(Table3, O2_L15_BufferProofOtherCexs) {
    util::DiagEngine diags;
    core::AutoSvaOptions genOpts;
    core::FormalTestbench bufFt =
        core::generateFT(designs::design("noc_buffer").rtl, genOpts, diags);
    RunResult rr = runDesign("l15_noc_wrapper", 0, true, {&bufFt});
    SCOPED_TRACE(rr.report.str());
    // The bound buffer FT's liveness proves inside the slice...
    const auto* bufLive = rr.report.find("as__mem_engine_noc_eventual_response");
    ASSERT_NE(bufLive, nullptr);
    EXPECT_EQ(bufLive->status, formal::Status::Proven);
    // ...while the under-constrained message types fail the cache liveness.
    const auto* coreLive = rr.report.find("as__l15_core_eventual_response");
    ASSERT_NE(coreLive, nullptr);
    EXPECT_EQ(coreLive->status, formal::Status::Failed);
}

// --- ME: Mem Engine — TDD flow hits Bug2 through the reused buffer --------
TEST(Table3, MemEngine_DeadlockThroughReusedBuffer) {
    util::DiagEngine diags;
    core::AutoSvaOptions genOpts;
    core::FormalTestbench bufFt =
        core::generateFT(designs::design("noc_buffer").rtl, genOpts, diags);
    RunResult rr = runDesign("mem_engine", /*bug=*/1, true, {&bufFt});
    SCOPED_TRACE(rr.report.str());
    EXPECT_TRUE(rr.report.anyFailed());
    const auto* cmdLive = rr.report.find("as__me_cmd_eventual_response");
    ASSERT_NE(cmdLive, nullptr);
    EXPECT_EQ(cmdLive->status, formal::Status::Failed);
}

TEST(Table3, MemEngine_FixedProves) {
    util::DiagEngine diags;
    core::AutoSvaOptions genOpts;
    core::FormalTestbench bufFt =
        core::generateFT(designs::design("noc_buffer").rtl, genOpts, diags);
    RunResult rr = runDesign("mem_engine", /*bug=*/0, true, {&bufFt});
    SCOPED_TRACE(rr.report.str());
    EXPECT_TRUE(rr.report.allProven());
}

// --- Trajectory tripwire --------------------------------------------------
// PDR trajectories move with any change to solver state: watch-list order,
// variable numbering, heap slots, the simplify() cadence. These pins are
// the counters of `autosva run-design <d> [--bug 1] --no-cache` at CLI
// defaults (EngineOptions{}, the design's extension SVA, no submodule FTs).
// A change meant to keep the search bit-identical — a refactor, the SAT
// core's garbage collection, which runs on the first two rows — must match
// them exactly; a change meant to move the search updates them and says
// why in CHANGES.md.
sva::VerificationReport runDesignAsCli(const std::string& name, uint64_t bug) {
    const auto& info = designs::design(name);
    util::DiagEngine diags;
    core::AutoSvaOptions genOpts;
    genOpts.sourcePath = info.name + ".sv";
    core::FormalTestbench ft = core::generateFT(info.rtl, genOpts, diags);
    core::VerifyOptions vopts;
    if (info.hasBugParam) vopts.paramOverrides["BUG"] = bug;
    std::vector<std::string> sources = designs::rtlSources(info);
    vopts.sourcePaths = designs::rtlSourceNames(info);
    if (!info.extensionSva.empty()) {
        sources.push_back(info.extensionSva);
        vopts.sourcePaths.push_back(info.name + "_extension.sva");
    }
    return core::verify(sources, ft, vopts, diags);
}

TEST(Trajectory, DefaultSearchCountersPinned) {
    struct Pin {
        const char* design;
        uint64_t bug;
        uint64_t satCalls, frames, cubes, drops, seeds, lifted, pdrConflicts;
    };
    const Pin pins[] = {
        {"ariane_lsu", 0, 20685, 27, 1021, 13451, 232, 3453, 10912},
        {"noc_buffer", 0, 20147, 24, 946, 13006, 324, 2346, 12548},
        {"ariane_lsu", 1, 4777, 37, 481, 2101, 21, 2609, 2584},
        {"mem_engine", 1, 350, 9, 33, 137, 0, 25, 99},
    };
    for (const Pin& pin : pins) {
        SCOPED_TRACE(std::string(pin.design) + " BUG=" + std::to_string(pin.bug));
        const formal::EngineStats es = runDesignAsCli(pin.design, pin.bug).engineStats;
        EXPECT_EQ(es.satCalls, pin.satCalls);
        EXPECT_EQ(es.pdrFramesOpened, pin.frames);
        EXPECT_EQ(es.pdrCubesBlocked, pin.cubes);
        EXPECT_EQ(es.pdrGenDropAttempts, pin.drops);
        EXPECT_EQ(es.pdrSeedCubesAdmitted, pin.seeds);
        EXPECT_EQ(es.pdrLiftedLiterals, pin.lifted);
        EXPECT_EQ(es.pdrConflicts, pin.pdrConflicts);
    }
}

} // namespace
