// Obligation-scheduler tests: determinism of the parallel pipeline across
// worker counts (the contract: byte-identical statuses, depths, and report
// ordering for any EngineOptions::jobs) and independent testability of the
// proof strategies.
#include <gtest/gtest.h>

#include <sstream>

#include "core/autosva.hpp"
#include "designs/designs.hpp"
#include "formal/scheduler.hpp"
#include "formal/strategy.hpp"
#include "rtlir/elaborate.hpp"
#include "sva/report.hpp"

namespace {

using namespace autosva;
using formal::EngineOptions;
using formal::ObligationJob;
using formal::ObligationScheduler;
using formal::ProofContext;
using formal::Status;

std::unique_ptr<ir::Design> elab(const std::string& src, const std::string& top) {
    util::DiagEngine diags;
    ir::ElabOptions opts;
    opts.tieOffs["rst_ni"] = 1;
    return ir::elaborateSources({src}, top, diags, opts);
}

/// Canonical report fingerprint: everything that must be identical across
/// worker counts (name, kind, status, depth, ordering) — wall-clock times
/// excluded, trace input values excluded (any satisfying model is valid).
std::string fingerprint(const std::vector<formal::PropertyResult>& results) {
    std::ostringstream out;
    for (const auto& r : results) {
        out << r.name << '|' << static_cast<int>(r.kind) << '|' << formal::statusName(r.status)
            << '|' << r.depth << '|' << r.trace.length() << '|' << r.trace.loopStart << '\n';
    }
    return out.str();
}

std::string fingerprint(const sva::VerificationReport& report) {
    return fingerprint(report.results);
}

// ---------------------------------------------------------------------------
// Strategies are independently runnable
// ---------------------------------------------------------------------------

TEST(Strategy, BmcAloneFindsShortestCex) {
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni);
  reg [3:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 4'd0;
    else q <= q + 4'd1;
  end
  as__never5: assert property (q != 4'd5);
endmodule)",
                  "m");
    formal::BitBlast bb = formal::bitblast(*d);
    EngineOptions opts;
    std::vector<formal::AigLit> noConstraints;
    ProofContext ctx{*d, bb, bb.aig, noConstraints, opts, formal::kAigFalse, nullptr};
    ObligationJob job;
    job.ob = &d->obligations()[0];
    job.bad = bb.lit(job.ob->net);
    job.pdrBad = job.bad;
    formal::runBmcFresh(ctx, job, opts.bmcDepth);
    EXPECT_EQ(job.result.status, Status::Failed);
    EXPECT_EQ(job.result.depth, 5);
    EXPECT_EQ(job.result.trace.length(), 6);
}

TEST(Strategy, PdrAloneProvesDeepInvariant) {
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire en);
  reg [3:0] a;
  reg [3:0] b;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      a <= 4'd0;
      b <= 4'd0;
    end else if (en) begin
      a <= a + 4'd1;
      b <= b + 4'd1;
    end
  end
  as__equal: assert property (a == b);
endmodule)",
                  "m");
    formal::BitBlast bb = formal::bitblast(*d);
    EngineOptions opts;
    std::vector<formal::AigLit> noConstraints;
    ProofContext ctx{*d, bb, bb.aig, noConstraints, opts, formal::kAigFalse, nullptr};
    ObligationJob job;
    job.ob = &d->obligations()[0];
    job.bad = bb.lit(job.ob->net);
    job.pdrBad = job.bad;
    // What the scheduler's PDR stage runs for every open job.
    formal::runPdr(ctx, job);
    EXPECT_EQ(job.result.status, Status::Proven);
    EXPECT_FALSE(job.invariant.empty());
}

TEST(Strategy, PdrCounterexampleReplayIsCounted) {
    // The counterexample lies 12 frames deep, so PDR finds it and the
    // shortest-first replay from reset solves k = 0..12: 13 solves, every
    // one of them counted beside the search's own queries.
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire en);
  reg [4:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 5'd0;
    else if (en) q <= q + 5'd1;
  end
  as__never12: assert property (q != 5'd12);
endmodule)",
                  "m");
    formal::BitBlast bb = formal::bitblast(*d);
    EngineOptions opts;
    std::vector<formal::AigLit> noConstraints;
    formal::SharedStats stats;
    ProofContext ctx{*d, bb, bb.aig, noConstraints, opts, formal::kAigFalse, &stats};
    ObligationJob job;
    job.ob = &d->obligations()[0];
    job.bad = bb.lit(job.ob->net);
    job.pdrBad = job.bad;
    formal::runPdr(ctx, job);
    EXPECT_EQ(job.result.status, Status::Failed);
    EXPECT_EQ(job.result.depth, 12);
    EXPECT_EQ(job.result.trace.length(), 13);
    formal::PdrOptions pdrOpts;
    pdrOpts.maxQueries = opts.pdrMaxQueries;
    const uint64_t searchQueries = formal::pdrCheck(bb.aig, job.bad, noConstraints, pdrOpts).queries;
    EXPECT_GT(searchQueries, 0u);
    EXPECT_EQ(stats.satCalls.load(), searchQueries + 13);
}

// ---------------------------------------------------------------------------
// Scheduler determinism across worker counts
// ---------------------------------------------------------------------------

// A module with a mix of passing / failing safety, liveness, and covers, so
// every scheduler phase (parallel phase A, liveness constraint feeding,
// sequential PDR lemma chain) is exercised. The counter saturates so the
// liveness-to-safety lasso stays short (wrapping counters would push the
// loop period to lcm of all register periods).
constexpr const char* kMixedRtl = R"(
module m (input wire clk_i, input wire rst_ni, input wire req, input wire resp,
          input wire [3:0] in);
  reg [3:0] q;
  reg [2:0] oh;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      q <= 4'd0;
      oh <= 3'b001;
    end else begin
      if (q != 4'd15) q <= q + 4'd1;
      oh <= {oh[1:0], oh[2]};
    end
  end
  am__bounded: assume property (in < 4'd12);
  am__fair: assume property (req |-> s_eventually (resp));
  as__onehot: assert property ($onehot(oh));
  as__never9: assert property (q != 4'd9);
  as__live: assert property (req |-> s_eventually (resp));
  co__six: cover property (q == 4'd6);
  co__in_big: cover property (in == 4'd13);
endmodule)";

TEST(Scheduler, SmallDesignIdenticalAcrossWorkerCounts) {
    auto run = [](int jobs) {
        auto d = elab(kMixedRtl, "m");
        EngineOptions opts;
        opts.jobs = jobs;
        ObligationScheduler scheduler(*d, opts);
        return fingerprint(scheduler.run());
    };
    auto kindTag = [](ir::Obligation::Kind k) {
        return "|" + std::to_string(static_cast<int>(k)) + "|";
    };
    std::string safety = kindTag(ir::Obligation::Kind::SafetyBad);
    std::string justice = kindTag(ir::Obligation::Kind::Justice);
    std::string cover = kindTag(ir::Obligation::Kind::Cover);
    std::string sequential = run(1);
    EXPECT_NE(sequential.find("as__never9" + safety + "cex|9"), std::string::npos) << sequential;
    EXPECT_NE(sequential.find("as__onehot" + safety + "proven"), std::string::npos) << sequential;
    EXPECT_NE(sequential.find("as__live" + justice + "proven"), std::string::npos) << sequential;
    EXPECT_NE(sequential.find("co__six" + cover + "covered|6"), std::string::npos) << sequential;
    EXPECT_NE(sequential.find("co__in_big" + cover + "unreachable"), std::string::npos)
        << sequential;
    for (int jobs : {2, 4, 8}) {
        EXPECT_EQ(run(jobs), sequential) << "jobs=" << jobs;
    }
}

// The tentpole acceptance check: core::verify() on the Ariane MMU — the
// paper's flagship module, with submodule instances, fairness assumptions,
// liveness chains, and covers — must produce byte-identical per-property
// statuses, depths, and ordering with 1 and 4 workers.
TEST(Scheduler, ArianeMmuIdenticalJobs1VsJobs4) {
    const auto& info = designs::design("ariane_mmu");
    auto run = [&info](int jobs) {
        util::DiagEngine diags;
        core::FormalTestbench ft = core::generateFT(info.rtl, {}, diags);
        core::VerifyOptions vopts;
        vopts.engine.jobs = jobs;
        // Same bounded budget the Table III suite uses for bug hunts: keeps
        // the test fast; determinism must hold at any budget.
        vopts.engine.bmcDepth = 15;
        vopts.engine.pdrMaxQueries = 30000;
        if (!info.extensionSva.empty()) vopts.extraSources.push_back(info.extensionSva);
        return core::verify(designs::rtlSources(info), ft, vopts, diags);
    };
    sva::VerificationReport r1 = run(1);
    sva::VerificationReport r4 = run(4);
    EXPECT_FALSE(r1.results.empty());
    EXPECT_EQ(fingerprint(r1), fingerprint(r4));
    EXPECT_EQ(r1.outcomeSummary(), r4.outcomeSummary());
}

} // namespace
