// Solver-reuse and AIG-rewrite tests: the determinism contract of the
// per-worker incremental solver architecture (the batched BMC sweep must
// produce the same verdicts, depths, and canonical reports as throwaway
// solvers, for any worker count), Unroller::peek across frames,
// assumption-released clause groups, and the structural rewrite pass
// (soundness, determinism, fingerprint stability).
#include <gtest/gtest.h>

#include <sstream>

#include "cache/fingerprint.hpp"
#include "core/autosva.hpp"
#include "formal/aig_rewrite.hpp"
#include "formal/scheduler.hpp"
#include "formal/strategy.hpp"
#include "formal/unroll.hpp"
#include "rtlir/elaborate.hpp"
#include "sva/report.hpp"

namespace {

using namespace autosva;
using formal::Aig;
using formal::AigLit;
using formal::EngineOptions;
using formal::ObligationJob;
using formal::ObligationScheduler;
using formal::ProofContext;
using formal::SatLit;
using formal::SatResult;
using formal::SatSolver;
using formal::Status;
using formal::aigNot;
using formal::aigMkLit;
using formal::Unroller;

std::unique_ptr<ir::Design> elab(const std::string& src, const std::string& top) {
    util::DiagEngine diags;
    ir::ElabOptions opts;
    opts.tieOffs["rst_ni"] = 1;
    return ir::elaborateSources({src}, top, diags, opts);
}

std::string fingerprint(const std::vector<formal::PropertyResult>& results) {
    std::ostringstream out;
    for (const auto& r : results) {
        out << r.name << '|' << static_cast<int>(r.kind) << '|' << formal::statusName(r.status)
            << '|' << r.depth << '|' << r.trace.length() << '|' << r.trace.loopStart << '\n';
    }
    return out.str();
}

// ---------------------------------------------------------------------------
// Unroller::peek
// ---------------------------------------------------------------------------

TEST(Unroll, PeekAcrossFrames) {
    Aig aig;
    AigLit in = aig.mkInput("in");
    AigLit latch = aig.mkLatch(0, "q");
    aig.setLatchNext(latch, in);
    AigLit net = aig.mkAnd(in, aigNot(latch));

    SatSolver solver;
    Unroller un(aig, solver, Unroller::Init::Reset);

    // Nothing materialized yet: peek must not materialize.
    EXPECT_EQ(un.peek(0, net), Unroller::kUnset);
    EXPECT_EQ(un.peek(3, in), Unroller::kUnset);
    EXPECT_EQ(un.peek(-1, in), Unroller::kUnset);

    SatLit l2 = un.lit(2, net); // Materializes the cone through frames 0..2.
    EXPECT_EQ(un.peek(2, net), l2);
    // Signed peek is the negation of the unsigned mapping.
    EXPECT_EQ(un.peek(2, aigNot(net)), formal::satNeg(l2));
    // The latch at frame 2 aliases its next-state function at frame 1, so
    // the cone reaches back to frame 1's input but never frame 0's latch.
    EXPECT_NE(un.peek(1, in), Unroller::kUnset);
    EXPECT_EQ(un.peek(2, latch), un.peek(1, in));
    EXPECT_EQ(un.peek(0, latch), Unroller::kUnset);
    // The AND node itself was only needed at frame 2.
    EXPECT_EQ(un.peek(0, net), Unroller::kUnset);
    EXPECT_EQ(un.peek(1, net), Unroller::kUnset);
    // Frames beyond the materialized range stay unset.
    EXPECT_EQ(un.peek(3, net), Unroller::kUnset);
    EXPECT_EQ(un.numFrames(), 3);
    EXPECT_GT(un.conesMaterialized(), 0u);
}

// ---------------------------------------------------------------------------
// Assumption-released clause groups
// ---------------------------------------------------------------------------

TEST(SatClauseGroups, ReleasedClausesStopBinding) {
    SatSolver solver;
    SatLit a = formal::mkSatLit(solver.newVar());
    SatLit b = formal::mkSatLit(solver.newVar());

    SatLit group = solver.openClauseGroup();
    solver.addClauseIn(group, {a});            // a, while the group is active.
    solver.addClauseIn(group, {formal::satNeg(b)}); // !b, while active.

    // Active: a must be true, b false.
    EXPECT_EQ(solver.solve({group, formal::satNeg(a)}), SatResult::Unsat);
    EXPECT_EQ(solver.solve({group, b}), SatResult::Unsat);
    EXPECT_EQ(solver.solve({group}), SatResult::Sat);

    solver.closeClauseGroup(group);
    // Released: the per-group facts no longer constrain anything.
    EXPECT_EQ(solver.solve({formal::satNeg(a)}), SatResult::Sat);
    EXPECT_EQ(solver.solve({b}), SatResult::Sat);
    solver.simplify(); // Dead group clauses purge without breaking the DB.
    EXPECT_EQ(solver.solve({b, formal::satNeg(a)}), SatResult::Sat);
}

// ---------------------------------------------------------------------------
// Batched BMC == per-job BMC (the reuse isolation contract)
// ---------------------------------------------------------------------------

// Saturating counter: q counts up to 15 under `en` and sticks. Three
// obligations with overlapping cones over q:
//  - as__never9  never fails within depth 8 -> each frame's Unsat adds a
//    strengthening unit about q's cone (the "first job Unsat-strengthened"
//    adversarial setup);
//  - as__never5  fails at depth 5 even though its bad literal overlaps the
//    strengthened cone — a leaked (rather than implied) strengthening fact
//    would mask it;
//  - co__three   cover hit at depth 3 on the same cone.
constexpr const char* kCounterRtl = R"(
module m (input wire clk_i, input wire rst_ni, input wire en);
  reg [3:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 4'd0;
    else if (en && q != 4'd15) q <= q + 4'd1;
  end
  as__never9: assert property (q != 4'd9);
  as__never5: assert property (q != 4'd5);
  co__three: cover property (q == 4'd3);
endmodule)";

TEST(SolverReuse, BatchedBmcMatchesFreshSolvers) {
    auto d = elab(kCounterRtl, "m");
    formal::BitBlast bb = formal::bitblast(*d, /*rewrite=*/true);
    EngineOptions opts;
    opts.bmcDepth = 8; // never9 stays Unknown within the bound.
    std::vector<formal::AigLit> noConstraints;
    ProofContext ctx{*d, bb, bb.aig, noConstraints, opts, formal::kAigFalse, nullptr};

    auto makeJobs = [&] {
        std::vector<ObligationJob> jobs(d->obligations().size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            const auto& ob = d->obligations()[i];
            jobs[i].ob = &ob;
            jobs[i].bad = bb.lit(ob.net);
            jobs[i].pdrBad = jobs[i].bad;
            jobs[i].coverMode = ob.kind == ir::Obligation::Kind::Cover;
        }
        return jobs;
    };

    // Reference: the per-job BMC loop on throwaway solvers.
    std::vector<ObligationJob> fresh = makeJobs();
    for (auto& job : fresh) formal::runBmcFresh(ctx, job, opts.bmcDepth);

    // One batch on one shared solver, in the same order.
    std::vector<ObligationJob> batched = makeJobs();
    std::vector<ObligationJob*> batch;
    for (auto& job : batched) batch.push_back(&job);
    formal::runBmcBatch(ctx, batch);

    ASSERT_EQ(fresh.size(), batched.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(fresh[i].result.status, batched[i].result.status) << i;
        EXPECT_EQ(fresh[i].result.depth, batched[i].result.depth) << i;
        EXPECT_EQ(fresh[i].result.trace.length(), batched[i].result.trace.length()) << i;
    }
    // Shape sanity (so the adversarial scenario actually ran as designed).
    EXPECT_EQ(fresh[0].result.status, Status::Unknown); // never9, bound 8.
    EXPECT_EQ(fresh[1].result.status, Status::Failed);  // never5 at 5.
    EXPECT_EQ(fresh[1].result.depth, 5);
    EXPECT_EQ(fresh[2].result.status, Status::Covered); // three at 3.
    EXPECT_EQ(fresh[2].result.depth, 3);
    // The batched witness is a genuine model too: right trace shape.
    EXPECT_EQ(batched[1].result.trace.length(), 6);
}

// ---------------------------------------------------------------------------
// Whole-scheduler determinism across worker counts
// ---------------------------------------------------------------------------

// Mix of passing/failing safety, liveness, and covers so every phase runs.
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

TEST(SolverReuse, CanonicalIdenticalAcrossReuseAndJobs) {
    auto run = [](int jobs, uint64_t* reuses) {
        auto d = elab(kMixedRtl, "m");
        EngineOptions opts;
        opts.jobs = jobs;
        ObligationScheduler scheduler(*d, opts);
        std::string fp = fingerprint(scheduler.run());
        *reuses = scheduler.stats().solverReuses;
        return fp;
    };
    uint64_t reuses = 0;
    std::string reference = run(1, &reuses);
    EXPECT_NE(reference.find("as__never9"), std::string::npos);
    // The batched sweep's solver really was shared.
    EXPECT_GT(reuses, 0u);
    for (int jobs : {1, 4}) EXPECT_EQ(run(jobs, &reuses), reference) << "jobs=" << jobs;
}

// ---------------------------------------------------------------------------
// AIG structural rewrite
// ---------------------------------------------------------------------------

TEST(AigRewrite, MergesEquivalentLatchesAndRewritesAnds) {
    Aig aig;
    AigLit a = aig.mkInput("a");
    AigLit b = aig.mkInput("b");
    AigLit l1 = aig.mkLatch(0, "l1");
    AigLit l2 = aig.mkLatch(0, "l2"); // Same init, same next: equal forever.
    AigLit l3 = aig.mkLatch(-1, "l3"); // Symbolic init: must NOT merge.
    aig.setLatchNext(l1, a);
    aig.setLatchNext(l2, a);
    aig.setLatchNext(l3, a);
    AigLit both = aig.mkAnd(l1, l2);     // == l1 after merging.
    AigLit ab = aig.mkAnd(a, b);
    AigLit absorbed = aig.mkAnd(a, ab);  // a & (a&b) == a&b.
    AigLit contained = aig.mkAnd(a, aigNot(ab)); // a & !(a&b) == a & !b.

    formal::AigRewriteResult rw = formal::rewriteAig(aig);
    EXPECT_EQ(rw.mergedLatches, 1u);
    EXPECT_EQ(rw.aig.latches().size(), 2u);
    EXPECT_EQ(rw(l1), rw(l2));
    EXPECT_NE(rw(l1), rw(l3));
    EXPECT_EQ(rw(both), rw(l1));
    EXPECT_EQ(rw(absorbed), rw(ab));
    // a & !(a&b) rewrote to a & !b: its fanins are the mapped a and !b.
    uint32_t cv = formal::aigVar(rw(contained));
    EXPECT_EQ(rw.aig.kind(cv), Aig::VarKind::And);
    AigLit f0 = rw.aig.fanin0(cv);
    AigLit f1 = rw.aig.fanin1(cv);
    EXPECT_TRUE((f0 == rw(a) && f1 == formal::aigNot(rw(b))) ||
                (f1 == rw(a) && f0 == formal::aigNot(rw(b))));
}

std::string dumpAig(const Aig& aig) {
    std::ostringstream out;
    for (uint32_t v = 0; v < aig.numVars(); ++v) {
        out << v << ':' << static_cast<int>(aig.kind(v));
        switch (aig.kind(v)) {
        case Aig::VarKind::And:
            out << '(' << aig.fanin0(v) << ',' << aig.fanin1(v) << ')';
            break;
        case Aig::VarKind::Latch:
            out << '[' << aig.latchInit(v) << "->" << aig.latchNext(v) << ']';
            break;
        default:
            break;
        }
        out << aig.varName(v) << ';';
    }
    return out.str();
}

TEST(AigRewrite, DeterministicNodeNumbering) {
    auto d = elab(kMixedRtl, "m");
    formal::BitBlast bb1 = formal::bitblast(*d, /*rewrite=*/true);
    formal::BitBlast bb2 = formal::bitblast(*d, /*rewrite=*/true);
    EXPECT_EQ(dumpAig(bb1.aig), dumpAig(bb2.aig));
    // And the remaps agree too.
    for (const auto& [node, lits] : bb1.bits) {
        auto it = bb2.bits.find(node);
        ASSERT_NE(it, bb2.bits.end());
        EXPECT_EQ(lits, it->second);
    }
}

TEST(AigRewrite, FingerprintsStableAcrossReruns) {
    auto d = elab(kMixedRtl, "m");
    formal::BitBlast bb1 = formal::bitblast(*d, /*rewrite=*/true);
    formal::BitBlast bb2 = formal::bitblast(*d, /*rewrite=*/true);
    for (const auto& ob : d->obligations()) {
        if (ob.kind != ir::Obligation::Kind::SafetyBad || ob.xprop) continue;
        cache::Fingerprint f1 = cache::fingerprintCone(bb1.aig, {bb1.lit(ob.net)}, 7);
        cache::Fingerprint f2 = cache::fingerprintCone(bb2.aig, {bb2.lit(ob.net)}, 7);
        EXPECT_EQ(f1, f2) << ob.name;
    }
}

// The rewrite preserves every verdict; proof *depths* are engine
// artifacts that legitimately move (PDR converges at a different frame on
// the smaller graph) and are excluded from canonical() for exactly that
// reason. test_pdr.cpp gates full canonical identity on all registered
// designs; this pins the name/kind/status core on the mixed design.
TEST(AigRewrite, VerdictsUnchangedByRewrite) {
    auto run = [](bool rewrite) {
        auto d = elab(kMixedRtl, "m");
        EngineOptions opts;
        opts.aigRewrite = rewrite;
        ObligationScheduler scheduler(*d, opts);
        std::ostringstream out;
        for (const auto& r : scheduler.run())
            out << r.name << '|' << static_cast<int>(r.kind) << '|'
                << formal::statusName(r.status) << '\n';
        return out.str();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(AigRewrite, ShrinksTheMixedDesign) {
    auto d = elab(kMixedRtl, "m");
    formal::BitBlast raw = formal::bitblast(*d);
    formal::BitBlast rewritten = formal::bitblast(*d, /*rewrite=*/true);
    EXPECT_LE(rewritten.aig.numVars(), raw.aig.numVars());
    EXPECT_LE(rewritten.aig.numAnds(), raw.aig.numAnds());
}

} // namespace
