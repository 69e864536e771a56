// Regenerates the paper's Table III: "RTL modules tested with AutoSVA" —
// the per-module formal-verification outcome, including the bug->fix->proof
// transitions described in §IV.
//
// Shape target (not absolute numbers): the verdict column must match the
// paper. Our backend is the built-in BMC/PDR engine instead of
// JasperGold 2015.12, so runtimes differ; who-proves and who-fails must not.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace autosva;
using bench::runDesign;

namespace {

std::string secondsStr(double s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1fs", s);
    return buf;
}

} // namespace

int main(int argc, char** argv) {
    std::string jsonPath = bench::extractJsonPath(argc, argv);
    bench::banner("Table III: RTL modules tested with AutoSVA (reproduction)");

    util::TextTable table({"RTL Module", "Paper result", "Reproduced result", "time"});
    util::DiagEngine diags;
    core::AutoSvaOptions genOpts;
    std::vector<bench::JsonRow> jsonRows;

    // --- A1: PTW ---
    {
        util::Stopwatch sw;
        auto run = runDesign("ariane_ptw", 0);
        table.addRow({"A1. Page Table Walker (PTW)", designs::design("ariane_ptw").paperResult,
                      run.report.outcomeSummary(), secondsStr(sw.seconds())});
        jsonRows.push_back(bench::reportRow("A1", "ariane_ptw", run.report, sw.seconds()));
    }
    // --- A2: TLB ---
    {
        util::Stopwatch sw;
        auto run = runDesign("ariane_tlb", 0);
        table.addRow({"A2. Trans. Look. Buffer (TLB)", designs::design("ariane_tlb").paperResult,
                      run.report.outcomeSummary(), secondsStr(sw.seconds())});
        jsonRows.push_back(bench::reportRow("A2", "ariane_tlb", run.report, sw.seconds()));
    }
    // --- A3: MMU — buggy first, then fixed ---
    {
        util::Stopwatch sw;
        auto buggy = runDesign("ariane_mmu", 1);
        jsonRows.push_back(bench::reportRow("A3-buggy", "ariane_mmu", buggy.report, sw.seconds()));
        util::Stopwatch swFixed;
        auto fixed = runDesign("ariane_mmu", 0);
        jsonRows.push_back(
            bench::reportRow("A3-fixed", "ariane_mmu", fixed.report, swFixed.seconds()));
        std::string outcome;
        if (buggy.report.anyFailed() && fixed.report.allProven())
            outcome = "Bug found and fixed -> 100% proof";
        else
            outcome = "buggy: " + buggy.report.outcomeSummary() +
                      " / fixed: " + fixed.report.outcomeSummary();
        table.addRow({"A3. Memory Mgmt. Unit (MMU)", designs::design("ariane_mmu").paperResult,
                      outcome, secondsStr(sw.seconds())});
    }
    // --- A4: LSU (bug present in the paper's snapshot) ---
    {
        util::Stopwatch sw;
        auto run = runDesign("ariane_lsu", 1);
        std::string outcome = run.report.anyFailed()
                                  ? "Hit known bug (" + run.report.firstFailure()->name + ")"
                                  : run.report.outcomeSummary();
        table.addRow({"A4. Load Store Unit (LSU)", designs::design("ariane_lsu").paperResult,
                      outcome, secondsStr(sw.seconds())});
        jsonRows.push_back(bench::reportRow("A4", "ariane_lsu", run.report, sw.seconds()));
    }
    // --- A5: L1-I$ ---
    {
        util::Stopwatch sw;
        auto run = runDesign("ariane_icache", 1);
        std::string outcome = run.report.anyFailed()
                                  ? "Hit known bug (" + run.report.firstFailure()->name + ")"
                                  : run.report.outcomeSummary();
        table.addRow({"A5. L1-I$ (write-back)", designs::design("ariane_icache").paperResult,
                      outcome, secondsStr(sw.seconds())});
        jsonRows.push_back(bench::reportRow("A5", "ariane_icache", run.report, sw.seconds()));
    }
    // --- O1: NoC buffer ---
    {
        util::Stopwatch sw;
        auto buggy = runDesign("noc_buffer", 1);
        jsonRows.push_back(bench::reportRow("O1-buggy", "noc_buffer", buggy.report, sw.seconds()));
        util::Stopwatch swFixed;
        auto fixed = runDesign("noc_buffer", 0);
        jsonRows.push_back(
            bench::reportRow("O1-fixed", "noc_buffer", fixed.report, swFixed.seconds()));
        std::string outcome;
        if (buggy.report.anyFailed() && fixed.report.allProven())
            outcome = "Bug found and fixed -> 100% proof";
        else
            outcome = "buggy: " + buggy.report.outcomeSummary() +
                      " / fixed: " + fixed.report.outcomeSummary();
        table.addRow({"O1. NoC Buffer", designs::design("noc_buffer").paperResult, outcome,
                      secondsStr(sw.seconds())});
    }
    // --- O2: L1.5 with the buffer FT linked (-AM) ---
    {
        util::Stopwatch sw;
        core::FormalTestbench bufFt =
            core::generateFT(designs::design("noc_buffer").rtl, genOpts, diags);
        auto run = runDesign("l15_noc_wrapper", 0, true, {&bufFt});
        const auto* bufLive = run.report.find("as__mem_engine_noc_eventual_response");
        const auto* coreLive = run.report.find("as__l15_core_eventual_response");
        bool bufferProof = bufLive && bufLive->status == formal::Status::Proven;
        bool otherCex = coreLive && coreLive->status == formal::Status::Failed;
        std::string outcome = bufferProof && otherCex
                                  ? "NoC Buffer proof, other CEXs"
                                  : run.report.outcomeSummary();
        table.addRow({"O2. L1.5$ (private) ", designs::design("l15_noc_wrapper").paperResult,
                      outcome, secondsStr(sw.seconds())});
    }

    std::cout << table.str();

    std::cout << "\nRows match the paper when 'Paper result' and 'Reproduced result' agree in\n"
                 "kind (proof vs bug vs mixed).\n";
    return 0;
}
