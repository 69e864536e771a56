// SAT solver unit tests: satisfiable/unsatisfiable instances, assumptions,
// incremental use, pigeonhole stress, and cross-thread cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "formal/sat.hpp"
#include "robust/deadline.hpp"

namespace {

using namespace autosva::formal;
namespace robust = autosva::robust;

TEST(Sat, TrivialSat) {
    SatSolver s;
    int a = s.newVar();
    s.addUnit(mkSatLit(a));
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
}

TEST(Sat, TrivialUnsat) {
    SatSolver s;
    int a = s.newVar();
    s.addUnit(mkSatLit(a));
    s.addUnit(satNeg(mkSatLit(a)));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, EmptyClauseUnsat) {
    SatSolver s;
    s.addClause({});
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, SimpleImplicationChain) {
    SatSolver s;
    const int n = 20;
    std::vector<int> vars;
    for (int i = 0; i < n; ++i) vars.push_back(s.newVar());
    for (int i = 0; i + 1 < n; ++i)
        s.addBinary(satNeg(mkSatLit(vars[i])), mkSatLit(vars[i + 1]));
    s.addUnit(mkSatLit(vars[0]));
    EXPECT_EQ(s.solve(), SatResult::Sat);
    for (int i = 0; i < n; ++i) EXPECT_TRUE(s.modelValue(vars[i]));
}

TEST(Sat, XorChainParity) {
    // x0 ^ x1 ^ x2 = 1 via Tseitin-style clauses; forcing all false is UNSAT.
    SatSolver s;
    int x0 = s.newVar(), x1 = s.newVar(), x2 = s.newVar();
    // Encode "odd number of x0,x1,x2 true":
    s.addTernary(mkSatLit(x0), mkSatLit(x1), mkSatLit(x2));
    s.addTernary(mkSatLit(x0), satNeg(mkSatLit(x1)), satNeg(mkSatLit(x2)));
    s.addTernary(satNeg(mkSatLit(x0)), mkSatLit(x1), satNeg(mkSatLit(x2)));
    s.addTernary(satNeg(mkSatLit(x0)), satNeg(mkSatLit(x1)), mkSatLit(x2));
    EXPECT_EQ(s.solve(), SatResult::Sat);
    int ones = s.modelValue(x0) + s.modelValue(x1) + s.modelValue(x2);
    EXPECT_EQ(ones % 2, 1);
}

TEST(Sat, AssumptionsSatAndUnsat) {
    SatSolver s;
    int a = s.newVar(), b = s.newVar();
    s.addBinary(satNeg(mkSatLit(a)), mkSatLit(b)); // a -> b
    EXPECT_EQ(s.solve({mkSatLit(a)}), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(b));
    // Assume a and !b: contradiction.
    EXPECT_EQ(s.solve({mkSatLit(a), satNeg(mkSatLit(b))}), SatResult::Unsat);
    // Solver unchanged: still satisfiable without assumptions.
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, IncrementalClauseAddition) {
    SatSolver s;
    int a = s.newVar(), b = s.newVar();
    s.addBinary(mkSatLit(a), mkSatLit(b));
    EXPECT_EQ(s.solve(), SatResult::Sat);
    s.addUnit(satNeg(mkSatLit(a)));
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(b));
    s.addUnit(satNeg(mkSatLit(b)));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, ContradictoryAssumptionPair) {
    SatSolver s;
    int a = s.newVar();
    EXPECT_EQ(s.solve({mkSatLit(a), satNeg(mkSatLit(a))}), SatResult::Unsat);
}

TEST(Sat, PigeonholeUnsat) {
    // PHP(4,3): 4 pigeons in 3 holes — classic small UNSAT instance that
    // requires real conflict learning.
    SatSolver s;
    const int pigeons = 4, holes = 3;
    std::vector<std::vector<int>> v(pigeons, std::vector<int>(holes));
    for (auto& row : v)
        for (auto& cell : row) cell = s.newVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<SatLit> atLeastOne;
        for (int h = 0; h < holes; ++h) atLeastOne.push_back(mkSatLit(v[p][h]));
        s.addClause(atLeastOne);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.addBinary(satNeg(mkSatLit(v[p1][h])), satNeg(mkSatLit(v[p2][h])));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GT(s.conflicts(), 0u);
}

TEST(Sat, RandomThreeSatSatisfiableInstancesModelCheck) {
    // Random planted 3-SAT: generate a random assignment, emit clauses
    // satisfied by it; solver must find *some* model; verify it.
    std::mt19937_64 rng(42);
    for (int iter = 0; iter < 10; ++iter) {
        SatSolver s;
        const int n = 30, m = 100;
        std::vector<int> vars;
        std::vector<bool> planted;
        for (int i = 0; i < n; ++i) {
            vars.push_back(s.newVar());
            planted.push_back(rng() & 1);
        }
        std::vector<std::vector<SatLit>> clauses;
        for (int c = 0; c < m; ++c) {
            std::vector<SatLit> clause;
            bool satisfied = false;
            for (int k = 0; k < 3; ++k) {
                int var = static_cast<int>(rng() % n);
                bool neg = rng() & 1;
                if (planted[var] != neg) satisfied = true;
                clause.push_back(mkSatLit(vars[var], neg));
            }
            if (!satisfied) clause[0] = mkSatLit(satVar(clause[0]), !planted[satVar(clause[0])]);
            clauses.push_back(clause);
            s.addClause(clause);
        }
        ASSERT_EQ(s.solve(), SatResult::Sat);
        for (const auto& clause : clauses) {
            bool sat = false;
            for (SatLit l : clauses.back().empty() ? clause : clause)
                if (s.modelValue(satVar(l)) != satSign(l)) sat = true;
            EXPECT_TRUE(sat);
        }
    }
}

TEST(Sat, SimplifyPurgesClosedClauseGroups) {
    // The PDR frame-solver pattern: per-query facts live in clause groups,
    // closing a group satisfies its clauses at level 0, and simplify()
    // must actually shed them from the clause database — liveClauses()
    // shrinks back to the persistent encoding.
    SatSolver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.addTernary(mkSatLit(a), mkSatLit(b), mkSatLit(c)); // Persistent clause.
    const size_t persistent = s.liveClauses();
    EXPECT_EQ(persistent, 1u);

    std::vector<SatLit> groups;
    for (int g = 0; g < 8; ++g) {
        SatLit act = s.openClauseGroup();
        s.addClauseIn(act, {mkSatLit(a), satNeg(mkSatLit(b))});
        s.addClauseIn(act, {satNeg(mkSatLit(a)), mkSatLit(c)});
        groups.push_back(act);
        EXPECT_EQ(s.solve({act}), SatResult::Sat);
    }
    const size_t beforeClose = s.liveClauses();
    EXPECT_GE(beforeClose, persistent + 16);

    for (SatLit act : groups) s.closeClauseGroup(act);
    // Closing alone retires the groups logically but keeps the clauses
    // attached; simplify() is what frees them.
    EXPECT_EQ(s.liveClauses(), beforeClose);
    s.simplify();
    EXPECT_LT(s.liveClauses(), beforeClose);
    EXPECT_EQ(s.liveClauses(), persistent);

    // The solver is still correct afterwards.
    EXPECT_EQ(s.solve(), SatResult::Sat);
    s.addUnit(satNeg(mkSatLit(a)));
    s.addUnit(satNeg(mkSatLit(b)));
    s.addUnit(satNeg(mkSatLit(c)));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, CrossThreadRequestStopInterruptsAndSolverStaysUsable) {
    // The cancellation contract: another thread raising the stop flag of
    // the bound deadline makes an in-flight solve() return Interrupted at
    // the next conflict/restart boundary, the trail unwinds to level 0, and
    // the solver answers again once the deadline is unbound.
    SatSolver s;
    const int pigeons = 10, holes = 9; // Hard enough to outlive the stopper.
    std::vector<std::vector<int>> v(pigeons, std::vector<int>(holes));
    for (auto& row : v)
        for (auto& cell : row) cell = s.newVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<SatLit> clause;
        for (int h = 0; h < holes; ++h) clause.push_back(mkSatLit(v[p][h]));
        s.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.addBinary(satNeg(mkSatLit(v[p1][h])), satNeg(mkSatLit(v[p2][h])));

    std::atomic<bool> stop{false};
    const robust::Deadline deadline(0.0, robust::StopCause::RunBudget, &stop);
    s.bindDeadline(&deadline);
    std::thread stopper([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        stop.store(true);
    });
    EXPECT_EQ(s.solve(), SatResult::Interrupted);
    stopper.join();

    // Still expired: a fresh solve must bail immediately.
    EXPECT_EQ(s.solve(), SatResult::Interrupted);

    // After unbinding, the solver answers queries it can decide by
    // propagation alone (the PHP core stays too hard on purpose).
    s.bindDeadline(nullptr);
    EXPECT_EQ(s.solve({mkSatLit(v[0][0]), satNeg(mkSatLit(v[0][0]))}), SatResult::Unsat);
}

TEST(Sat, HygieneCountersAtAddClause) {
    // addClause() entry hygiene (sort/dedupe, tautology and level-0
    // filtering) is observable through counters so --stats can report
    // encoder waste.
    SatSolver s;
    int a = s.newVar(), b = s.newVar();
    s.addClause({mkSatLit(a), mkSatLit(a), mkSatLit(b)}); // Duplicate literal.
    EXPECT_GE(s.hygieneLitsDropped(), 1u);
    s.addClause({mkSatLit(a), satNeg(mkSatLit(a))}); // Tautology: dropped whole.
    EXPECT_GE(s.hygieneDrops(), 1u);
    s.addUnit(mkSatLit(a));
    const uint64_t dropsBefore = s.hygieneDrops();
    s.addClause({mkSatLit(a), mkSatLit(b)}); // Satisfied at level 0: dropped.
    EXPECT_EQ(s.hygieneDrops(), dropsBefore + 1);
    const uint64_t litsBefore = s.hygieneLitsDropped();
    s.addClause({satNeg(mkSatLit(a)), mkSatLit(b)}); // !a false at level 0: stripped.
    EXPECT_EQ(s.hygieneLitsDropped(), litsBefore + 1);
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(b));
}

TEST(Sat, ExternalStopTokenInterrupts) {
    // bindDeadline() shares one deadline across many solvers — the job
    // deadline every solver of a PDR search binds. A deadline whose stop
    // flag is raised interrupts at solve() entry, and stays expired once
    // the flag is lowered; unbinding restores normal operation.
    std::atomic<bool> stop{false};
    const robust::Deadline deadline(0.0, robust::StopCause::Interrupted, &stop);
    SatSolver s;
    int a = s.newVar(), b = s.newVar();
    s.addBinary(mkSatLit(a), mkSatLit(b));
    s.bindDeadline(&deadline);
    EXPECT_EQ(s.solve(), SatResult::Sat);
    stop.store(true);
    EXPECT_EQ(s.solve(), SatResult::Interrupted);
    stop.store(false);
    EXPECT_EQ(s.solve(), SatResult::Interrupted);
    s.bindDeadline(nullptr);
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

} // namespace

// White-box access to search internals, declared a friend by SatSolver.
// Only the tests below use it; everything else stays black-box on purpose.
namespace autosva::formal {
struct SatSolverTestPeer {
    using CRef = SatSolver::CRef;

    static uint64_t luby(uint64_t i) { return SatSolver::luby(i); }

    /// Plants an attached learnt clause (>= 2 literals) with the given LBD.
    static CRef addLearnt(SatSolver& s, std::vector<SatLit> lits, int lbd) {
        CRef cr = s.allocClause(lits, /*learnt=*/true, lbd);
        s.attachClause(cr);
        s.learnts_.push_back(cr);
        return cr;
    }

    /// Assigns `l` at a fresh decision level with `reason` as its antecedent
    /// — the state reduceDB's reason-lock check protects.
    static void lockAsReason(SatSolver& s, SatLit l, CRef reason) {
        s.trailLims_.push_back(static_cast<int>(s.trail_.size()));
        s.enqueue(l, reason);
    }

    static void reduceDB(SatSolver& s) { s.reduceDB(); }
    static bool isDeleted(const SatSolver& s, CRef cr) { return s.isDeleted(cr); }
    static size_t clauseSize(const SatSolver& s, CRef cr) {
        return static_cast<size_t>(s.clauseSize(cr));
    }
    static void backtrackToRoot(SatSolver& s) { s.cancelUntil(0); }

    /// Collects now, whatever the garbage ratio (the solver must be between
    /// solves, as collectGarbage() requires).
    static std::vector<int> collect(SatSolver& s) { return s.collect(); }
    static size_t arenaWords(const SatSolver& s) { return s.arena_.size(); }
    /// Lowers the learnt-clause limit so reduceDB runs in a small test.
    static void setMaxLearnts(SatSolver& s, size_t n) { s.maxLearnts_ = n; }
    static constexpr size_t kVarWords = SatSolver::kVarWords;
    static constexpr size_t kMinGarbageWords = SatSolver::kMinGarbageWords;
};
} // namespace autosva::formal

namespace {

TEST(SatInternals, LubySequencePinned) {
    // Pins the restart schedule: index 0 yields 1, then the tail runs at
    // twice the textbook Luby values (1,2,2,4,2,2,4,8,...). The solver
    // multiplies by 64, so restart limits grow 64,128,128,256,... — a valid
    // universal schedule; this test exists so a refactor cannot silently
    // change restart cadence (which would move witness values everywhere).
    using Peer = SatSolverTestPeer;
    const uint64_t expected[] = {1, 2, 2, 4, 2, 2, 4, 8, 2, 2, 4, 2, 2, 4, 8, 16};
    for (uint64_t i = 0; i < 16; ++i) EXPECT_EQ(Peer::luby(i), expected[i]) << "i=" << i;
}

TEST(SatInternals, ReduceDbKeepsReasonLockedAndGlueClauses) {
    using Peer = SatSolverTestPeer;
    SatSolver s;
    std::vector<int> v;
    for (int i = 0; i < 16; ++i) v.push_back(s.newVar());

    // Eight learnts: two high-LBD (sorted worst-first by reduceDB), six glue
    // (LBD 2). Half the list is eviction-eligible; the high-LBD pair sits at
    // the front of that half.
    Peer::CRef lockedHighLbd =
        Peer::addLearnt(s, {mkSatLit(v[0]), mkSatLit(v[1])}, /*lbd=*/8);
    Peer::CRef evictableHighLbd =
        Peer::addLearnt(s, {mkSatLit(v[2]), mkSatLit(v[3])}, /*lbd=*/8);
    std::vector<SatSolverTestPeer::CRef> glue;
    for (int i = 0; i < 6; ++i)
        glue.push_back(
            Peer::addLearnt(s, {mkSatLit(v[4 + 2 * i]), mkSatLit(v[5 + 2 * i])}, /*lbd=*/2));

    // Make the first high-LBD clause the reason for a current assignment.
    Peer::lockAsReason(s, mkSatLit(v[0]), lockedHighLbd);

    Peer::reduceDB(s);

    EXPECT_FALSE(Peer::isDeleted(s, lockedHighLbd)) << "reason-locked clause evicted";
    for (Peer::CRef cr : glue) EXPECT_FALSE(Peer::isDeleted(s, cr)) << "glue clause evicted";
    EXPECT_TRUE(Peer::isDeleted(s, evictableHighLbd))
        << "eviction-eligible clause survived — the test lost its teeth";

    Peer::backtrackToRoot(s);
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(SatInternals, ResetSearchStatePreservesModelAndRootUnits) {
    SatSolver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.addUnit(mkSatLit(a));                          // Root-level unit.
    s.addBinary(satNeg(mkSatLit(a)), mkSatLit(b));   // a -> b.
    s.addBinary(mkSatLit(b), mkSatLit(c));
    ASSERT_EQ(s.solve(), SatResult::Sat);
    const bool ma = s.modelValue(a), mb = s.modelValue(b), mc = s.modelValue(c);

    s.resetSearchState();

    // The last model stays readable — pooled strategies extract witnesses
    // after the pool has already reset the solver for the next job.
    EXPECT_EQ(s.modelValue(a), ma);
    EXPECT_EQ(s.modelValue(b), mb);
    EXPECT_EQ(s.modelValue(c), mc);

    // Root-level units survive the reset: contradicting one is still UNSAT.
    EXPECT_EQ(s.solve({satNeg(mkSatLit(a))}), SatResult::Unsat);
    EXPECT_EQ(s.solve({satNeg(mkSatLit(b))}), SatResult::Unsat);
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

/// Clause source for the PDR frame-solver pattern below: a small planted
/// persistent formula, then cycles that each open a group, add clauses to
/// it, solve under the group plus a few persistent literals, and close it.
/// Literals are drawn by persistent variable index (index * 2 + negated),
/// so each solver maps them through its own, possibly renumbered, list.
struct GroupCycles {
    static constexpr int kVars = 60;
    std::mt19937_64 rng{7};
    std::vector<bool> planted;

    GroupCycles() {
        for (int i = 0; i < kVars; ++i) planted.push_back((rng() & 1) != 0);
    }
    /// A random 3-literal clause satisfied by the planted assignment.
    std::vector<int> plantedClause() {
        std::vector<int> clause;
        bool satisfied = false;
        for (int k = 0; k < 3; ++k) {
            int var = static_cast<int>(rng() % kVars);
            bool neg = (rng() & 1) != 0;
            satisfied = satisfied || planted[static_cast<size_t>(var)] != neg;
            clause.push_back(var * 2 + (neg ? 1 : 0));
        }
        if (!satisfied) { // Flip the first literal to agree with the planted value.
            const int var = clause[0] / 2;
            clause[0] = var * 2 + (planted[static_cast<size_t>(var)] ? 0 : 1);
        }
        return clause;
    }
    std::vector<int> randomClause(int width) {
        std::vector<int> clause;
        for (int k = 0; k < width; ++k)
            clause.push_back(static_cast<int>(rng() % (2 * kVars)));
        return clause;
    }
    /// `width` literals the planted assignment satisfies.
    std::vector<int> plantedLits(int width) {
        std::vector<int> lits;
        for (int k = 0; k < width; ++k) {
            int var = static_cast<int>(rng() % kVars);
            lits.push_back(var * 2 + (planted[static_cast<size_t>(var)] ? 0 : 1));
        }
        return lits;
    }
};

std::vector<SatLit> toSolver(const std::vector<int>& vars, const std::vector<int>& lits) {
    std::vector<SatLit> out;
    for (int l : lits) out.push_back(mkSatLit(vars[static_cast<size_t>(l / 2)], (l & 1) != 0));
    return out;
}

TEST(SatInternals, GarbageCollectionKeepsTheSearch) {
    // Collection only renames: a solver that collects after every retired
    // group must answer every query exactly like one that never collects —
    // same answers, models, cores and search counters.
    using Peer = SatSolverTestPeer;
    SatSolver collected, reference;
    Peer::setMaxLearnts(collected, 40); // Exercise reduceDB's deletions too.
    Peer::setMaxLearnts(reference, 40);
    std::vector<int> varsC, varsR;
    for (int i = 0; i < GroupCycles::kVars; ++i) {
        varsC.push_back(collected.newVar());
        varsR.push_back(reference.newVar());
    }
    GroupCycles cycles;
    for (int c = 0; c < 4 * GroupCycles::kVars; ++c) {
        std::vector<int> clause = cycles.plantedClause();
        collected.addClause(toSolver(varsC, clause));
        reference.addClause(toSolver(varsR, clause));
    }

    size_t dropped = 0, sat = 0, unsat = 0;
    for (int cycle = 0; cycle < 2500; ++cycle) {
        const SatLit actC = collected.openClauseGroup();
        const SatLit actR = reference.openClauseGroup();
        for (int g = 0; g < 3; ++g) {
            std::vector<int> clause = cycles.randomClause(3);
            collected.addClauseIn(actC, toSolver(varsC, clause));
            reference.addClauseIn(actR, toSolver(varsR, clause));
        }
        std::vector<int> assumed = cycles.randomClause(4);
        std::vector<SatLit> assumptionsC{actC}, assumptionsR{actR};
        for (SatLit l : toSolver(varsC, assumed)) assumptionsC.push_back(l);
        for (SatLit l : toSolver(varsR, assumed)) assumptionsR.push_back(l);

        const SatResult rc = collected.solve(assumptionsC);
        const SatResult rr = reference.solve(assumptionsR);
        ASSERT_EQ(rc, rr) << "cycle " << cycle;
        if (rc == SatResult::Sat) {
            ++sat;
            for (int i = 0; i < GroupCycles::kVars; ++i)
                ASSERT_EQ(collected.modelValue(varsC[static_cast<size_t>(i)]),
                          reference.modelValue(varsR[static_cast<size_t>(i)]))
                    << "cycle " << cycle << " var " << i;
        } else {
            ++unsat;
            // Cores compared by assumption position.
            auto positions = [](const std::vector<SatLit>& core,
                                const std::vector<SatLit>& assumptions) {
                std::vector<size_t> pos;
                for (SatLit l : core)
                    pos.push_back(static_cast<size_t>(
                        std::find(assumptions.begin(), assumptions.end(), l) -
                        assumptions.begin()));
                return pos;
            };
            ASSERT_EQ(positions(collected.conflictCore(), assumptionsC),
                      positions(reference.conflictCore(), assumptionsR))
                << "cycle " << cycle;
        }
        ASSERT_EQ(collected.conflicts(), reference.conflicts()) << "cycle " << cycle;
        ASSERT_EQ(collected.decisions(), reference.decisions()) << "cycle " << cycle;
        ASSERT_EQ(collected.propagations(), reference.propagations()) << "cycle " << cycle;

        collected.closeClauseGroup(actC);
        reference.closeClauseGroup(actR);
        if (cycle % 16 == 15) {
            collected.simplify();
            reference.simplify();
        }
        const int before = collected.numVars();
        const std::vector<int> varMap = Peer::collect(collected);
        dropped += static_cast<size_t>(before - collected.numVars());
        for (int& v : varsC) {
            v = varMap[static_cast<size_t>(v)];
            ASSERT_GE(v, 0) << "a variable the caller still names was dropped";
        }
        ASSERT_EQ(collected.liveClauses(), reference.liveClauses()) << "cycle " << cycle;
        ASSERT_EQ(collected.liveLearnts(), reference.liveLearnts()) << "cycle " << cycle;
    }
    // The run must have exercised both answers, real search and real
    // reclamation, or the comparison above proves little.
    EXPECT_GT(sat, 100u);
    EXPECT_GT(unsat, 100u);
    EXPECT_GT(reference.conflicts(), 1000u);
    EXPECT_GT(dropped, 2000u);
    EXPECT_LT(collected.numVars(), reference.numVars());
}

TEST(SatInternals, RetiredGroupsDoNotGrowTheSolver) {
    // A frame solver retires one group per query. With collectGarbage()
    // after every periodic simplify (what FrameSolver::retireGroup does),
    // its variables and arena words stay bounded by the persistent formula
    // plus the collection threshold, however many groups it retires.
    using Peer = SatSolverTestPeer;
    SatSolver s;
    std::vector<int> vars;
    for (int i = 0; i < GroupCycles::kVars; ++i) vars.push_back(s.newVar());
    GroupCycles cycles;
    std::vector<std::vector<int>> persistent;
    for (int c = 0; c < 3 * GroupCycles::kVars; ++c) {
        persistent.push_back(cycles.plantedClause());
        s.addClause(toSolver(vars, persistent.back()));
    }
    const size_t persistentVars = static_cast<size_t>(s.numVars());
    const size_t persistentWords = Peer::arenaWords(s);

    constexpr int kCycles = 10000;
    constexpr int kSimplifyEvery = 64;
    size_t maxVars = 0, maxWords = 0, collections = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        const SatLit act = s.openClauseGroup();
        s.addClauseIn(act, toSolver(vars, cycles.plantedClause()));
        std::vector<SatLit> assumptions{act};
        for (SatLit l : toSolver(vars, cycles.plantedLits(2))) assumptions.push_back(l);
        ASSERT_EQ(s.solve(assumptions), SatResult::Sat);
        s.closeClauseGroup(act);
        if (cycle % kSimplifyEvery == kSimplifyEvery - 1) {
            s.simplify();
            if (auto varMap = s.collectGarbage()) {
                ++collections;
                for (int& v : vars) v = varMap->at(static_cast<size_t>(v));
            }
        }
        maxVars = std::max(maxVars, static_cast<size_t>(s.numVars()));
        maxWords = std::max(maxWords, Peer::arenaWords(s));
    }
    EXPECT_GT(collections, 0u);
    // Garbage never exceeds the threshold by more than the groups retired
    // between two simplify() calls; learnt clauses over the persistent
    // variables are the only live growth and stay far below the bound.
    const size_t thresholdVars = Peer::kMinGarbageWords / Peer::kVarWords;
    EXPECT_LE(maxVars, persistentVars + thresholdVars + kSimplifyEvery) << "max vars";
    EXPECT_LE(maxWords, 2 * persistentWords + Peer::kMinGarbageWords + kSimplifyEvery * 8)
        << "max arena words";
    // The solver still answers correctly on its renumbered variables.
    ASSERT_EQ(s.solve(), SatResult::Sat);
    for (const auto& clause : persistent) {
        bool satisfied = false;
        for (SatLit l : toSolver(vars, clause)) satisfied = satisfied || modelBit(s, l);
        EXPECT_TRUE(satisfied);
    }
}

} // namespace
