// From-scratch CDCL SAT solver: two-watched literals, 1UIP conflict
// learning, VSIDS decision heuristic with phase saving, Luby restarts and
// LBD-based learnt-clause reduction. Supports incremental solving under
// assumptions, which the BMC / PDR engines rely on.
//
// The solver searches exactly the CNF it is given. The only rewriting is
// clause hygiene at addClause() entry (sorting, duplicate and level-0-false
// literal removal, dropping tautologies and level-0-satisfied clauses) and
// simplify()'s purge of level-0-satisfied clauses, so every variable keeps
// its model value and callers may read any literal they encoded.
//
// Clause storage is one arena of int words. A clause is a header word
// (size, learnt bit, deleted bit) followed by its literals inline; a learnt
// clause carries its LBD and its activity (a double, in two words) after
// the literals. A clause reference is the offset of its header. Deleting a
// clause only sets its deleted bit, so the words stay until a garbage
// collection (collectGarbage) reclaims them.
//
// Garbage collection. closeClauseGroup() releases the group's activation
// variable. A long-lived owner that retires many groups (the PDR frame
// solvers) calls collectGarbage() at decision level 0 between solves; it
// runs once garbage (deleted clause words plus released variables)
// outweighs live data. It drops the deleted clause slots and every
// released variable that no live clause, level-0 reason or order-heap slot
// still names, renumbers everything that stays in its old relative order,
// and returns the old->new variable map so the owner can relabel the
// literals it keeps (Unroller::relabel). Collection never moves the
// search: it keeps clause creation order (simplify() walks it), the order
// of every watch list (propagate() visits watchers in that order), every
// order-heap slot (activity ties are broken by slot) and the relative order
// of variables (addClause() sorts literals by index). Every later query
// therefore sees the same propagations, decisions, conflicts, models and
// cores as on a solver that never collects, up to the renaming. There is
// no free list: newVar() always returns the index past every live
// variable, because handing a released index to a new variable would
// change the variable order, and with it the search.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "robust/deadline.hpp"

namespace autosva::formal {

/// Literals are encoded MiniSAT-style: lit = 2*var + sign (sign 1 = negated).
using SatLit = int;

[[nodiscard]] constexpr SatLit mkSatLit(int var, bool negated = false) {
    return var * 2 + (negated ? 1 : 0);
}
[[nodiscard]] constexpr int satVar(SatLit lit) { return lit >> 1; }
[[nodiscard]] constexpr bool satSign(SatLit lit) { return (lit & 1) != 0; }
[[nodiscard]] constexpr SatLit satNeg(SatLit lit) { return lit ^ 1; }

/// `lit` renamed through a garbage collection's old->new variable map
/// (SatSolver::collectGarbage). Only meaningful for a variable the
/// collection kept.
[[nodiscard]] inline SatLit relabelSatLit(const std::vector<int>& varMap, SatLit lit) {
    return mkSatLit(varMap[static_cast<size_t>(satVar(lit))], satSign(lit));
}

enum class SatResult { Sat, Unsat, Interrupted };

class SatSolver;

/// Sign-decoded model value of a literal after a Sat result: true iff the
/// literal (not just its variable) is satisfied by the model.
[[nodiscard]] bool modelBit(const SatSolver& solver, SatLit lit);

class SatSolver {
public:
    SatSolver();

    /// Creates a new variable and returns its index.
    int newVar();
    [[nodiscard]] int numVars() const { return static_cast<int>(assigns_.size()); }

    /// Adds a clause (empty clause makes the instance trivially UNSAT).
    void addClause(std::vector<SatLit> lits);
    void addUnit(SatLit l) { addClause({l}); }
    void addBinary(SatLit a, SatLit b) { addClause({a, b}); }
    void addTernary(SatLit a, SatLit b, SatLit c) { addClause({a, b, c}); }

    // -- Assumption-released clause groups ----------------------------------
    // A group is an activation literal guarding a set of clauses: each
    // clause added to the group carries the literal's negation, so the
    // clauses only bite while the activation literal is assumed. Closing
    // the group asserts the negation as a unit, permanently satisfying (and
    // thereby retiring) every clause in it. This is what lets one long-lived
    // solver discharge many obligations: per-obligation facts (BMC bad-frame
    // strengthening, frame constraints) live in groups and are released when
    // the job finishes, while learnt clauses about the shared transition
    // relation survive.
    //
    // Closing also releases the activation variable: the caller promises
    // never to name it again. simplify() then detaches the group's clauses
    // and collectGarbage() reclaims their words and the variable itself, so
    // a solver that retires one group per query stays the size of its live
    // formula rather than growing with the number of queries asked.

    /// Opens a clause group; returns its activation literal. Pass it as an
    /// assumption to solve() while the group should be active.
    [[nodiscard]] SatLit openClauseGroup() { return mkSatLit(newVar()); }
    /// Adds a clause that only holds while `group` is assumed.
    void addClauseIn(SatLit group, std::vector<SatLit> lits) {
        lits.push_back(satNeg(group));
        addClause(std::move(lits));
    }
    /// Permanently deactivates the group and every clause in it, and
    /// releases its activation variable.
    void closeClauseGroup(SatLit group);

    /// Removes clauses satisfied at decision level 0 (e.g. a closed group's
    /// clauses) from the watch lists, so a long-lived solver doesn't drag
    /// dead watchers through every later propagation. Semantically neutral;
    /// it reshuffles watch traversal order, which is safe for every caller
    /// now that PDR's generalization is ordering-insensitive — the PDR
    /// frame solvers run it periodically (pdr.cpp FrameSolver::retireGroup).
    void simplify();

    /// Garbage collection (see the file comment). Runs only at decision
    /// level 0 between solves, and only once garbage outweighs live data;
    /// returns the old->new variable map (-1 = dropped) when it ran, and
    /// nothing otherwise. The caller must relabel every literal it keeps
    /// (relabelSatLit); the last model and conflict core are relabeled in
    /// place, minus the dropped variables. A solver whose owner never
    /// closes a group drops no variable, so its numbering never changes.
    [[nodiscard]] std::optional<std::vector<int>> collectGarbage();

    /// Resets the search heuristics (VSIDS activities, saved phases) to
    /// their initial state while keeping the clause database. The BMC
    /// sweep, whose one solver serves a whole batch of obligations, calls
    /// this at each frame boundary: the next job then searches like a
    /// fresh solver — stale activity tuned to another job's cone otherwise
    /// degrades it — but still profits from the shared encoding and the
    /// learnt clauses.
    void resetSearchState();

    /// Solves under the given assumptions.
    [[nodiscard]] SatResult solve(const std::vector<SatLit>& assumptions = {});

    /// Model access after Sat: true iff variable is assigned true.
    [[nodiscard]] bool modelValue(int var) const { return model_[var] == 1; }

    /// After an Unsat result under assumptions: the subset of assumption
    /// literals involved in the refutation (an unsat core over assumptions).
    [[nodiscard]] const std::vector<SatLit>& conflictCore() const { return conflictCore_; }

    // Statistics.
    [[nodiscard]] uint64_t conflicts() const { return conflicts_; }
    [[nodiscard]] uint64_t decisions() const { return decisions_; }
    [[nodiscard]] uint64_t propagations() const { return propagations_; }
    /// Problem clauses accepted by addClause (simplified-away and learnt
    /// clauses excluded) — the encoder-cost counter behind --stats.
    [[nodiscard]] uint64_t clausesAdded() const { return clausesAdded_; }
    /// Clauses currently attached to the watch lists (problem + learnt,
    /// deleted ones excluded). simplify() shrinks this when it purges a
    /// closed clause group — the PDR frame-solver test asserts exactly
    /// that.
    [[nodiscard]] size_t liveClauses() const { return liveClauses_; }
    /// Live learnt clauses currently attached (memory observability);
    /// learnts_ never holds a deleted clause.
    [[nodiscard]] size_t liveLearnts() const { return learnts_.size(); }
    [[nodiscard]] uint64_t solves() const { return solves_; }

    /// Clauses dropped whole at addClause() entry (tautologies and
    /// level-0-satisfied clauses) — the clause-hygiene counter.
    [[nodiscard]] uint64_t hygieneDrops() const { return hygieneDrops_; }
    /// Duplicate / level-0-false literals stripped at addClause() entry.
    [[nodiscard]] uint64_t hygieneLitsDropped() const { return hygieneLitsDropped_; }

    // -- Cancellation -------------------------------------------------------
    // One source: a robust::Deadline (the run budget, an obligation timeout
    // or SIGINT/SIGTERM through EngineOptions::stopFlag). Once the bound
    // deadline has expired, every solve() returns Interrupted at its next
    // conflict/restart boundary (or immediately on entry); the solver is
    // left at decision level 0 and answers normally again once it is
    // unbound. An expired deadline stays expired. The deadline's stop flag
    // is the only state another thread touches while solve() runs.

    /// Binds (or, with nullptr, unbinds) the deadline solve() checks. The
    /// pointee must outlive the binding.
    void bindDeadline(const robust::Deadline* deadline) { deadline_ = deadline; }
    [[nodiscard]] bool stopRequested() const { return deadline_ && deadline_->expired(); }

private:
    friend struct SatSolverTestPeer; ///< White-box access for tests/test_sat.cpp.

    /// Offset of a clause's header word in arena_.
    using CRef = int32_t;
    static constexpr CRef kCRefUndef = -1;

    // Clause header word: size << 2 | learnt bit | deleted bit.
    static constexpr int kLearntBit = 2;
    static constexpr int kDeletedBit = 1;
    /// Words a learnt clause carries after its literals: LBD, activity.
    static constexpr size_t kLearntExtraWords = 3;
    /// Approximate words one variable costs outside the arena (its slots in
    /// the per-variable arrays and its two watch lists) — how released
    /// variables weigh against arena words in the collection trigger.
    static constexpr size_t kVarWords = 16;
    /// Garbage below this many words never triggers a collection, so a
    /// small solver does not collect after every few groups.
    static constexpr size_t kMinGarbageWords = size_t{1} << 12;

    struct Watcher {
        CRef cref;
        SatLit blocker;
    };

    enum : uint8_t { kTrue = 1, kFalse = 0, kUndef = 2 };

    [[nodiscard]] uint8_t litValue(SatLit l) const {
        uint8_t v = assigns_[satVar(l)];
        if (v == kUndef) return kUndef;
        return satSign(l) ? (v ^ 1) : v;
    }

    // Arena access. A SatLit* into the arena stays valid only until the
    // next clause is appended or the next collection.
    [[nodiscard]] int clauseSize(CRef cr) const { return arena_[cr] >> 2; }
    [[nodiscard]] bool isLearnt(CRef cr) const { return (arena_[cr] & kLearntBit) != 0; }
    [[nodiscard]] bool isDeleted(CRef cr) const { return (arena_[cr] & kDeletedBit) != 0; }
    [[nodiscard]] SatLit* clauseLits(CRef cr) { return &arena_[static_cast<size_t>(cr) + 1]; }
    [[nodiscard]] const SatLit* clauseLits(CRef cr) const {
        return &arena_[static_cast<size_t>(cr) + 1];
    }
    /// Arena words of the clause whose header word is `header`.
    [[nodiscard]] static size_t clauseWords(int header) {
        return 1 + static_cast<size_t>(header >> 2) +
               ((header & kLearntBit) != 0 ? kLearntExtraWords : 0);
    }
    [[nodiscard]] int clauseLbd(CRef cr) const;
    [[nodiscard]] double clauseActivity(CRef cr) const;
    void setClauseActivity(CRef cr, double activity);

    CRef allocClause(const std::vector<SatLit>& lits, bool learnt, int lbd);
    void attachClause(CRef cref);
    /// Detaches a clause from its two watch lists and marks it deleted.
    void deleteClause(CRef cref);
    bool enqueue(SatLit l, CRef reason);
    CRef propagate();
    void analyzeFinal(CRef conflict, SatLit failedAssumption);
    void analyze(CRef conflict, std::vector<SatLit>& learnt, int& backtrackLevel, int& lbd);
    void cancelUntil(int level);
    SatLit pickBranchLit();
    void bumpVarActivity(int var);
    void bumpClauseActivity(CRef cr);
    void decayActivities();
    void reduceDB();
    /// The collection itself, past collectGarbage()'s trigger.
    std::vector<int> collect();
    [[nodiscard]] int decisionLevel() const { return static_cast<int>(trailLims_.size()); }
    [[nodiscard]] static uint64_t luby(uint64_t i);

    bool ok_ = true;
    std::vector<int> arena_;
    size_t wastedWords_ = 0;  ///< Arena words of deleted clauses.
    size_t liveClauses_ = 0;
    std::vector<CRef> learnts_;
    std::vector<std::vector<Watcher>> watches_; // Indexed by literal.
    std::vector<uint8_t> assigns_;
    std::vector<uint8_t> model_;
    std::vector<uint8_t> phase_;
    std::vector<int> levels_;
    std::vector<CRef> reasons_;
    std::vector<uint8_t> released_; ///< Per variable: its group was closed.
    size_t releasedVars_ = 0;       ///< Released variables not yet dropped.
    /// Released variables the last collection had to keep; they weigh as
    /// live data until a later collection drops them.
    size_t releasedKept_ = 0;
    std::vector<SatLit> trail_;
    std::vector<int> trailLims_;
    size_t qhead_ = 0;

    std::vector<double> activity_;
    double varInc_ = 1.0;
    double clauseInc_ = 1.0;
    // Indexed max-heap over variable activity (MiniSAT's order_heap).
    std::vector<int> heap_;
    std::vector<int> heapPos_; // var -> heap index, -1 if absent.
    void heapInsert(int var);
    void heapUpdate(int var);
    int heapPopMax();
    void heapSiftUp(size_t i);
    void heapSiftDown(size_t i);
    std::vector<uint8_t> seen_;

    std::vector<SatLit> conflictCore_;
    uint64_t conflicts_ = 0;
    uint64_t decisions_ = 0;
    uint64_t propagations_ = 0;
    uint64_t clausesAdded_ = 0;
    uint64_t solves_ = 0;
    uint64_t hygieneDrops_ = 0;
    uint64_t hygieneLitsDropped_ = 0;
    size_t maxLearnts_ = 4000;
    const robust::Deadline* deadline_ = nullptr;
};

inline bool modelBit(const SatSolver& solver, SatLit lit) {
    bool value = solver.modelValue(satVar(lit));
    return satSign(lit) ? !value : value;
}

} // namespace autosva::formal
