// PDR hardening tests: pdrCheck (observability counters, seed admission,
// lifted cubes against explicit-state reachability), ternary-simulation
// lifting, the liveness lemma chain, and the perturbation-robustness
// contract — seeded shuffles of proof-obligation and cube submission order
// must produce byte-identical canonical reports, on every registered
// design, because the engine canonicalizes every ordering before it can
// reach a SAT query.
//
// The MMU fetch-chain gate (MmuFetchChainProvenUnderSeeds) re-verifies the
// paper's flagship module once per perturbation seed at a full proving
// budget; set AUTOSVA_MMU_FUZZ_SEEDS to a smaller count for quick local
// iteration (CI and acceptance runs use the default of 20).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/autosva.hpp"
#include "designs/designs.hpp"
#include "formal/bitblast.hpp"
#include "formal/pdr.hpp"
#include "formal/scheduler.hpp"
#include "formal/ternary_sim.hpp"
#include "rtlir/elaborate.hpp"
#include "sva/report.hpp"

namespace {

using namespace autosva;
using formal::EngineOptions;
using formal::PdrCube;
using formal::PdrOptions;
using formal::PdrResult;
using formal::Status;

std::unique_ptr<ir::Design> elab(const std::string& src, const std::string& top) {
    util::DiagEngine diags;
    ir::ElabOptions opts;
    opts.tieOffs["rst_ni"] = 1;
    return ir::elaborateSources({src}, top, diags, opts);
}

// A deep invariant PDR proves (a == b needs reachability reasoning: plain
// induction fails because unreachable states with a != b step to a != b).
constexpr const char* kDeepInvariantRtl = R"(
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
endmodule)";

struct PdrSetup {
    std::unique_ptr<ir::Design> design;
    formal::BitBlast bb;
    formal::AigLit bad = formal::kAigFalse;
    std::vector<formal::AigLit> constraints;

    explicit PdrSetup(const char* rtl) : design(elab(rtl, "m")), bb(formal::bitblast(*design)) {
        bad = bb.lit(design->obligations()[0].net);
    }
};

// ---------------------------------------------------------------------------
// pdrCheck
// ---------------------------------------------------------------------------

TEST(PdrCheck, ProvesAndPopulatesStats) {
    PdrSetup s(kDeepInvariantRtl);
    PdrResult r = formal::pdrCheck(s.bb.aig, s.bad, s.constraints);
    EXPECT_EQ(r.kind, PdrResult::Kind::Proven);
    EXPECT_GT(r.stats.framesOpened, 0u);
    EXPECT_GT(r.stats.cubesBlocked, 0u);
    EXPECT_GT(r.stats.genDropAttempts, 0u);
    // Every solve has exactly one kind, so the kinds add up to the total.
    const formal::PdrStats& q = r.stats;
    EXPECT_EQ(q.badQueries + q.blockQueries + q.validateQueries + q.dropQueries +
                  q.pushQueries + q.sideSolves,
              r.queries);
    EXPECT_GT(q.badQueries, 0u);
    EXPECT_GT(q.blockQueries, 0u);
    EXPECT_GT(q.dropQueries, 0u);
    EXPECT_GT(q.pushQueries, 0u);
    EXPECT_GT(q.sideSolves, 0u); // The level-0 check.
}

// ---------------------------------------------------------------------------
// Ordering-insensitivity at the pdrCheck level
// ---------------------------------------------------------------------------

TEST(PdrCheck, PerturbationSeedsAreQueryIdentical) {
    // The perturbation hook shuffles cube literals and seed-cube order
    // *before* canonicalization; because generalization and admission are
    // functions of the literal sets only, every seed must produce not just
    // the same verdict but the byte-identical query sequence — counted
    // here as an exact query-total match.
    PdrSetup s(kDeepInvariantRtl);
    PdrResult base = formal::pdrCheck(s.bb.aig, s.bad, s.constraints);
    ASSERT_EQ(base.kind, PdrResult::Kind::Proven);
    for (uint64_t seed : {1u, 2u, 3u, 42u, 0xdeadbeefu}) {
        PdrOptions opts;
        opts.perturbSeed = seed;
        PdrResult r = formal::pdrCheck(s.bb.aig, s.bad, s.constraints, opts);
        EXPECT_EQ(r.kind, base.kind) << "seed " << seed;
        EXPECT_EQ(r.depth, base.depth) << "seed " << seed;
        EXPECT_EQ(r.queries, base.queries) << "seed " << seed;
        EXPECT_EQ(r.invariant, base.invariant) << "seed " << seed;
    }
}

TEST(PdrCheck, SeedCubeSubmissionOrderIsIrrelevant) {
    // Candidate invariant cubes from the cache are re-validated through a
    // greatest-fixpoint filter; the admitted subset (and everything after)
    // must not depend on the order the cache handed them over.
    PdrSetup s(kDeepInvariantRtl);
    PdrResult proof = formal::pdrCheck(s.bb.aig, s.bad, s.constraints);
    ASSERT_EQ(proof.kind, PdrResult::Kind::Proven);
    ASSERT_FALSE(proof.invariant.empty());

    std::vector<PdrCube> forward = proof.invariant;
    std::vector<PdrCube> backward(forward.rbegin(), forward.rend());
    // Scramble the literal order inside each cube too.
    for (PdrCube& cube : backward) std::reverse(cube.begin(), cube.end());

    auto run = [&](const std::vector<PdrCube>& seeds) {
        PdrOptions opts;
        opts.seedCubes = &seeds;
        return formal::pdrCheck(s.bb.aig, s.bad, s.constraints, opts);
    };
    PdrResult a = run(forward);
    PdrResult b = run(backward);
    EXPECT_EQ(a.kind, PdrResult::Kind::Proven);
    EXPECT_EQ(a.stats.seedCubesAdmitted, b.stats.seedCubesAdmitted);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.invariant, b.invariant);
    EXPECT_GT(a.stats.seedCubesAdmitted, 0u); // A real proof's own invariant re-admits.
}

// ---------------------------------------------------------------------------
// Cube lifting: ternary simulation on small random AIGs
// ---------------------------------------------------------------------------

/// A random AIG of a few inputs, at most 10 latches (random init values,
/// some symbolic) and a random AND network over them, with random latch
/// next-state functions. `pool` collects every literal the build made.
struct RandomAig {
    formal::Aig aig;
    std::vector<formal::AigLit> pool;

    explicit RandomAig(std::mt19937_64& rng) {
        const int inputs = 1 + static_cast<int>(rng() % 3);
        const int latches = 1 + static_cast<int>(rng() % 10);
        for (int i = 0; i < inputs; ++i) pool.push_back(aig.mkInput());
        for (int i = 0; i < latches; ++i)
            pool.push_back(aig.mkLatch(static_cast<int>(rng() % 3) - 1));
        const int ands = 5 + static_cast<int>(rng() % 40);
        for (int i = 0; i < ands; ++i) {
            const formal::AigLit a = pick(rng);
            pool.push_back(aig.mkAnd(a, pick(rng)));
        }
        for (uint32_t lv : aig.latches()) aig.setLatchNext(formal::aigMkLit(lv), pick(rng));
    }

    /// A random literal of the pool, of random polarity.
    [[nodiscard]] formal::AigLit pick(std::mt19937_64& rng) const {
        return pool[rng() % pool.size()] ^ static_cast<formal::AigLit>(rng() & 1);
    }

    /// Two-valued value of every variable, given the inputs' and latches'
    /// values in `vals` (indexed by variable; other entries are ignored).
    [[nodiscard]] std::vector<bool> eval(std::vector<bool> vals) const {
        vals[0] = false;
        for (uint32_t v = 1; v < aig.numVars(); ++v)
            if (aig.kind(v) == formal::Aig::VarKind::And)
                vals[v] = value(vals, aig.fanin0(v)) && value(vals, aig.fanin1(v));
        return vals;
    }

    [[nodiscard]] static bool value(const std::vector<bool>& vals, formal::AigLit l) {
        return vals[formal::aigVar(l)] != formal::aigSign(l);
    }
};

// Lifting as PDR does it: the model's inputs and latches fixed, each latch
// set to X in ascending variable order and kept at X whenever every output
// stays determined. Whatever values the lifted-away latches then take, every
// output must keep its model value — which is why a lifted predecessor
// reaches its successor cube from each of its states, and why a lifted cube
// that meets Init is still a real counterexample.
TEST(TernarySim, LiftedCubeKeepsOutputsForEveryCompletion) {
    std::mt19937_64 rng(2011);
    size_t lifted = 0, kept = 0;
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        RandomAig g(rng);
        const formal::Aig& aig = g.aig;
        std::vector<formal::AigLit> outputs;
        const int numOutputs = 1 + static_cast<int>(rng() % 4);
        for (int i = 0; i < numOutputs; ++i) outputs.push_back(g.pick(rng));
        std::vector<bool> model(aig.numVars());
        for (uint32_t v : aig.inputs()) model[v] = (rng() & 1) != 0;
        for (uint32_t v : aig.latches()) model[v] = (rng() & 1) != 0;
        const std::vector<bool> modelVals = g.eval(model);

        formal::TernarySim sim(aig);
        for (uint32_t v : sim.watch(outputs))
            sim.set(v, model[v] ? formal::Ternary::True : formal::Ternary::False);
        sim.simulate();
        for (formal::AigLit o : outputs)
            ASSERT_EQ(sim.value(o), RandomAig::value(modelVals, o) ? formal::Ternary::True
                                                                   : formal::Ternary::False);
        std::vector<uint32_t> liftedAway;
        for (uint32_t lv : aig.latches()) {
            if (sim.inCone(lv) && !sim.tryX(lv)) {
                ++kept;
                continue;
            }
            liftedAway.push_back(lv);
        }
        lifted += liftedAway.size();
        for (formal::AigLit o : outputs) ASSERT_NE(sim.value(o), formal::Ternary::X);

        for (uint32_t bits = 0; bits < (1u << liftedAway.size()); ++bits) {
            std::vector<bool> completion = model;
            for (size_t i = 0; i < liftedAway.size(); ++i)
                completion[liftedAway[i]] = ((bits >> i) & 1) != 0;
            const std::vector<bool> vals = g.eval(completion);
            for (formal::AigLit o : outputs)
                ASSERT_EQ(RandomAig::value(vals, o), RandomAig::value(modelVals, o))
                    << "completion " << bits;
        }
    }
    // Not vacuous: lifting both removed and kept latches.
    EXPECT_GT(lifted, 0u);
    EXPECT_GT(kept, 0u);
}

/// A safety query on a RandomAig: `bad` is a conjunction of three pool
/// literals, so it is often unreachable, and half the queries carry one
/// constraint.
struct RandomQuery {
    formal::AigLit bad = formal::kAigFalse;
    std::vector<formal::AigLit> constraints;

    RandomQuery(RandomAig& g, std::mt19937_64& rng) {
        bad = g.pick(rng);
        for (int i = 0; i < 2; ++i) bad = g.aig.mkAnd(bad, g.pick(rng));
        if (rng() % 2 == 0) {
            const formal::AigLit c = g.pick(rng);
            constraints.push_back(g.aig.mkOr(c, g.pick(rng)));
        }
    }
};

/// Explicit-state semantics of a RandomQuery: bit i of a state is latch i
/// of aig.latches(), bit i of an input is input i of aig.inputs(). A step
/// needs the constraints in its source state, and so does a bad state.
struct ExplicitModel {
    const RandomAig& g;
    const RandomQuery& q;

    [[nodiscard]] uint32_t numStates() const { return 1u << g.aig.latches().size(); }

    [[nodiscard]] bool isInit(uint32_t s) const {
        const auto& latches = g.aig.latches();
        for (size_t i = 0; i < latches.size(); ++i) {
            const int iv = g.aig.latchInit(latches[i]);
            if (iv >= 0 && iv != static_cast<int>((s >> i) & 1)) return false;
        }
        return true;
    }

    [[nodiscard]] bool inCube(const PdrCube& cube, uint32_t s) const {
        const auto& latches = g.aig.latches();
        for (auto [var, val] : cube) {
            const auto at = std::find(latches.begin(), latches.end(), var) - latches.begin();
            if ((((s >> at) & 1) != 0) != val) return false;
        }
        return true;
    }

    /// Every constrained step out of `s`: (is the source state bad under
    /// that input, successor state).
    [[nodiscard]] std::vector<std::pair<bool, uint32_t>> steps(uint32_t s) const {
        const auto& latches = g.aig.latches();
        const auto& inputs = g.aig.inputs();
        std::vector<std::pair<bool, uint32_t>> out;
        for (uint32_t in = 0; in < (1u << inputs.size()); ++in) {
            std::vector<bool> vals(g.aig.numVars());
            for (size_t i = 0; i < latches.size(); ++i) vals[latches[i]] = ((s >> i) & 1) != 0;
            for (size_t i = 0; i < inputs.size(); ++i) vals[inputs[i]] = ((in >> i) & 1) != 0;
            vals = g.eval(std::move(vals));
            bool ok = true;
            for (formal::AigLit c : q.constraints) ok = ok && RandomAig::value(vals, c);
            if (!ok) continue;
            uint32_t next = 0;
            for (size_t i = 0; i < latches.size(); ++i)
                if (RandomAig::value(vals, g.aig.latchNext(latches[i]))) next |= 1u << i;
            out.emplace_back(RandomAig::value(vals, q.bad), next);
        }
        return out;
    }
};

// End to end: with lifted cubes, pdrCheck agrees with explicit-state
// reachability on small random AIGs, and every cube of a proof's invariant
// excludes every reachable state.
TEST(PdrCheck, LiftedSearchMatchesExplicitReachability) {
    std::mt19937_64 rng(2104);
    int proven = 0, deepCex = 0;
    uint64_t lifted = 0;
    for (int trial = 0; trial < 150; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        RandomAig g(rng);
        const RandomQuery q(g, rng);
        const ExplicitModel x{g, q};
        std::vector<char> reached(x.numStates(), 0);
        std::vector<uint32_t> frontier;
        for (uint32_t s = 0; s < x.numStates(); ++s) {
            if (x.isInit(s)) {
                reached[s] = 1;
                frontier.push_back(s);
            }
        }
        bool badReachable = false;
        while (!frontier.empty()) {
            const uint32_t s = frontier.back();
            frontier.pop_back();
            for (auto [isBad, next] : x.steps(s)) {
                if (isBad) badReachable = true;
                if (!reached[next]) {
                    reached[next] = 1;
                    frontier.push_back(next);
                }
            }
        }

        const PdrResult r = formal::pdrCheck(g.aig, q.bad, q.constraints);
        ASSERT_NE(r.kind, PdrResult::Kind::Unknown);
        ASSERT_EQ(r.kind == PdrResult::Kind::Cex, badReachable);
        lifted += r.stats.liftedLiterals;
        if (r.kind == PdrResult::Kind::Cex) {
            if (r.depth > 0) ++deepCex; // Found by the frames, not the level-0 check.
            continue;
        }
        ++proven;
        for (uint32_t s = 0; s < x.numStates(); ++s) {
            if (!reached[s]) continue;
            for (const PdrCube& cube : r.invariant)
                ASSERT_FALSE(x.inCube(cube, s)) << "reachable state " << s << " in an invariant cube";
        }
    }
    EXPECT_GT(proven, 0);
    EXPECT_GT(deepCex, 0);
    EXPECT_GT(lifted, 0u);
}

// Every Proven verdict carries a closed certificate: checked by explicit
// enumeration, the invariant holds in every initial state, every
// constrained step from inside it stays inside, and no state inside it is
// bad under the constraints. A cube that leaves the frame lists but keeps
// its clause in the frame solvers yields a proof the lists do not certify.
TEST(PdrCheck, ProvenInvariantIsInductive) {
    std::mt19937_64 rng(2011);
    int proven = 0;
    for (int trial = 0; trial < 400; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        RandomAig g(rng);
        const RandomQuery q(g, rng);
        const PdrResult r = formal::pdrCheck(g.aig, q.bad, q.constraints);
        ASSERT_NE(r.kind, PdrResult::Kind::Unknown);
        if (r.kind != PdrResult::Kind::Proven) continue;
        ++proven;
        const ExplicitModel x{g, q};
        auto inside = [&](uint32_t s) {
            for (const PdrCube& cube : r.invariant)
                if (x.inCube(cube, s)) return false;
            return true;
        };
        for (uint32_t s = 0; s < x.numStates(); ++s) {
            if (x.isInit(s)) {
                ASSERT_TRUE(inside(s)) << "initial state " << s << " outside";
            }
            if (!inside(s)) continue;
            for (auto [isBad, next] : x.steps(s)) {
                ASSERT_FALSE(isBad) << "bad state " << s << " inside";
                ASSERT_TRUE(inside(next)) << "step " << s << " -> " << next << " leaves";
            }
        }
    }
    EXPECT_GT(proven, 100);
}

// ---------------------------------------------------------------------------
// Engine-level perturbation fuzz and rewrite identity on the registered designs
// ---------------------------------------------------------------------------

struct DesignRun {
    std::string canonical;
    sva::VerificationReport report;
};

DesignRun runDesign(const designs::DesignInfo& info, bool aigRewrite, int jobs,
                    uint64_t perturbSeed, int bmcDepth = EngineOptions{}.bmcDepth,
                    uint64_t bug = 0) {
    util::DiagEngine diags;
    core::FormalTestbench ft = core::generateFT(info.rtl, {}, diags);
    core::VerifyOptions vopts;
    // Capped PDR budgets: every scheduler phase still runs, the PDR tails
    // stay bounded. The MMU runs below its liveness budget edge: verdicts
    // are monotone in the query budget, but *which* side of a budget bound
    // a proof lands on is a property of the graph representation — the two
    // deep MMU liveness proofs sit exactly on the 30k edge, where the
    // rewritten and legacy graphs legitimately disagree about what fits.
    // (At the full 600k budget the rewritten default proves 100% of the
    // MMU set — the MmuFetchChainProvenUnderSeeds gate below — while the
    // legacy graph has not at any tested budget; that asymmetry is the
    // speedup, not a soundness issue.)
    vopts.engine.bmcDepth = bmcDepth;
    vopts.engine.pdrMaxQueries = info.id == "A3" ? 15000 : 30000;
    vopts.engine.aigRewrite = aigRewrite;
    vopts.engine.jobs = jobs;
    vopts.engine.perturbSeed = perturbSeed;
    if (info.hasBugParam) vopts.paramOverrides["BUG"] = bug;
    if (!info.extensionSva.empty()) vopts.extraSources.push_back(info.extensionSva);
    DesignRun run;
    run.report = core::verify(designs::rtlSources(info), ft, vopts, diags);
    run.canonical = run.report.canonical();
    return run;
}

// N seeded random shuffles of proof-obligation and cube submission order
// (scheduler batches, PDR stage order, PDR cube/seed literals) must
// produce the identical canonical report on every registered design — and
// the identical SAT-call total: every stage is submission-order-insensitive
// down to its query sequence, not just its verdicts.
TEST(PerturbationFuzz, AllDesignsCanonicalInvariantUnderSeededShuffles) {
    for (const auto& info : designs::allDesigns()) {
        DesignRun base = runDesign(info, /*aigRewrite=*/true, /*jobs=*/1, /*perturbSeed=*/0);
        ASSERT_FALSE(base.report.results.empty()) << info.id;
        for (uint64_t seed : {1u, 2u}) {
            DesignRun perturbed = runDesign(info, true, 1, seed);
            EXPECT_EQ(perturbed.canonical, base.canonical)
                << info.id << " diverged at perturbation seed " << seed;
            EXPECT_EQ(perturbed.report.engineStats.satCalls, base.report.engineStats.satCalls)
                << info.id << " SAT-call total moved at perturbation seed " << seed;
        }
    }
}

// The acceptance gate of the aigRewrite default flip: canonical reports
// byte-identical across {rewrite on/off} x {jobs 1,4} on all registered
// designs. Proof depths are engine artifacts and excluded from canonical();
// statuses and trace shapes are semantic and must not move. On the
// default graph the SAT-call total must not move with the worker count
// either: every query is a function of the obligation, never of which
// worker ran it. The last leg gates the shallow default BMC probe against
// a depth-25 search: whatever the probe leaves to PDR comes back at its
// shortest depth through the cex replay.
TEST(RewriteIdentity, CanonicalAcrossRewriteAndJobsOnAllDesigns) {
    for (const auto& info : designs::allDesigns()) {
        DesignRun base = runDesign(info, /*aigRewrite=*/true, /*jobs=*/1, 0);
        ASSERT_FALSE(base.report.results.empty()) << info.id;
        DesignRun par = runDesign(info, true, 4, 0);
        EXPECT_EQ(par.canonical, base.canonical) << info.id << " diverged at rewrite=on jobs=4";
        EXPECT_EQ(par.report.engineStats.satCalls, base.report.engineStats.satCalls)
            << info.id << " SAT-call total moved at rewrite=on jobs=4";
        EXPECT_EQ(runDesign(info, false, 1, 0).canonical, base.canonical)
            << info.id << " diverged at rewrite=off jobs=1";
        EXPECT_EQ(runDesign(info, false, 4, 0).canonical, base.canonical)
            << info.id << " diverged at rewrite=off jobs=4";
        EXPECT_EQ(runDesign(info, true, 1, 0, /*bmcDepth=*/25).canonical, base.canonical)
            << info.id << " diverged at bmcDepth=25";
    }
    // Seeded bugs whose counterexamples straddle the probe: ariane_lsu's
    // depth-17 safety counterexample comes from PDR, noc_buffer's depth-6
    // lasso (loop start 5) from BMC.
    struct Straddle {
        const char* design;
        const char* prop;
        int depth;
        int loopStart;
    };
    for (const Straddle& s :
         {Straddle{"ariane_lsu", "as__lsu_dcache_max_outstanding", 17, -1},
          Straddle{"noc_buffer", "as__mem_engine_noc_eventual_response", 6, 5}}) {
        const auto& info = designs::design(s.design);
        DesignRun base = runDesign(info, true, 1, 0, EngineOptions{}.bmcDepth, /*bug=*/1);
        const auto* cex = base.report.find(s.prop);
        ASSERT_NE(cex, nullptr) << s.prop;
        EXPECT_EQ(cex->status, Status::Failed) << s.prop;
        EXPECT_EQ(cex->depth, s.depth) << s.prop;
        EXPECT_EQ(cex->trace.loopStart, s.loopStart) << s.prop;
        EXPECT_EQ(runDesign(info, true, 1, 0, /*bmcDepth=*/25, /*bug=*/1).canonical,
                  base.canonical)
            << s.design << " BUG=1 diverged at bmcDepth=25";
    }
}

// ---------------------------------------------------------------------------
// Liveness lemma chain
// ---------------------------------------------------------------------------

// Two liveness channels over disjoint state, and a third obligation reading
// channel A's state: the only test whose liveness cones are disjoint.
// Phase B proves them as one lemma chain in declaration order, so every
// worker count must give the same proofs, the same canonical report and
// the same SAT-call total.
TEST(LemmaChain, DisjointChannelsProveAtAnyWorkerCount) {
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni);
  reg [2:0] qa;
  reg [2:0] qb;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      qa <= 3'd0;
      qb <= 3'd0;
    end else begin
      if (qa != 3'd7) qa <= qa + 3'd1;
      if (qb != 3'd7) qb <= qb + 3'd1;
    end
  end
  as__live_a: assert property (s_eventually (qa == 3'd7));
  as__live_b: assert property (s_eventually (qb == 3'd7));
  as__live_a_again: assert property (s_eventually (qa >= 3'd6));
endmodule)",
                  "m");
    auto run = [&](int jobs) {
        EngineOptions opts;
        opts.jobs = jobs;
        formal::ObligationScheduler scheduler(*d, opts);
        sva::VerificationReport report;
        report.results = scheduler.run();
        report.engineStats = scheduler.stats();
        size_t justice = 0;
        for (const auto& r : report.results) {
            if (r.kind != ir::Obligation::Kind::Justice) continue;
            ++justice;
            EXPECT_EQ(r.status, Status::Proven) << r.name << " at jobs=" << jobs;
        }
        EXPECT_EQ(justice, 3u);
        return report;
    };
    sva::VerificationReport seq = run(1);
    sva::VerificationReport par = run(4);
    EXPECT_EQ(par.canonical(), seq.canonical());
    EXPECT_EQ(par.engineStats.satCalls, seq.engineStats.satCalls);
}

// ---------------------------------------------------------------------------
// The MMU fetch-chain gate
// ---------------------------------------------------------------------------

// The budget-edge proof that motivated the whole hardening: the Ariane MMU
// fetch chain liveness proof (phase-B lemma chain, strengthened pdrBad)
// must be Proven and stay Proven under >= 20 seeded ordering
// perturbations. Runs the full MMU verification once per seed at a full
// proving budget (the configuration that closes 100% of the MMU property
// set).
TEST(PerturbationFuzz, MmuFetchChainProvenUnderSeeds) {
    int seeds = 20;
    if (const char* env = std::getenv("AUTOSVA_MMU_FUZZ_SEEDS"); env && *env)
        seeds = std::atoi(env);
    ASSERT_GE(seeds, 1);

    const auto& info = designs::design("ariane_mmu");
    const char* chainProp = "ariane_mmu_prop_i.as__fetch_mmu_fetch_req_hsk_or_drop";

    auto runMmu = [&](uint64_t perturbSeed) {
        util::DiagEngine diags;
        core::FormalTestbench ft = core::generateFT(info.rtl, {}, diags);
        core::VerifyOptions vopts;
        vopts.engine.bmcDepth = 15;
        vopts.engine.pdrMaxQueries = 600000;
        vopts.engine.checkCovers = false; // Covers are phase-A noise here.
        vopts.engine.perturbSeed = perturbSeed;
        if (!info.extensionSva.empty()) vopts.extraSources.push_back(info.extensionSva);
        DesignRun run;
        run.report = core::verify(designs::rtlSources(info), ft, vopts, diags);
        run.canonical = run.report.canonical();
        return run;
    };

    DesignRun base = runMmu(0);
    {
        SCOPED_TRACE(base.report.str());
        const auto* chain = base.report.find(chainProp);
        ASSERT_NE(chain, nullptr);
        ASSERT_EQ(chain->status, Status::Proven)
            << "the fetch chain proof must close at the full budget";
    }
    for (int seed = 1; seed <= seeds; ++seed) {
        DesignRun perturbed = runMmu(static_cast<uint64_t>(seed));
        EXPECT_EQ(perturbed.canonical, base.canonical)
            << "canonical report diverged at perturbation seed " << seed;
        const auto* chain = perturbed.report.find(chainProp);
        ASSERT_NE(chain, nullptr);
        EXPECT_EQ(chain->status, Status::Proven)
            << "fetch chain proof lost at perturbation seed " << seed;
    }
}

} // namespace
