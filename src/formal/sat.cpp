#include "formal/sat.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "robust/faultinject.hpp"

namespace autosva::formal {

namespace {
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr double kRescaleLimit = 1e100;
} // namespace

SatSolver::SatSolver() = default;

int SatSolver::newVar() {
    int v = static_cast<int>(assigns_.size());
    assigns_.push_back(kUndef);
    model_.push_back(kUndef);
    phase_.push_back(kFalse);
    levels_.push_back(0);
    reasons_.push_back(kCRefUndef);
    activity_.push_back(0.0);
    seen_.push_back(0);
    heapPos_.push_back(-1);
    released_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heapInsert(v);
    return v;
}

int SatSolver::clauseLbd(CRef cr) const {
    return arena_[static_cast<size_t>(cr + 1 + clauseSize(cr))];
}

double SatSolver::clauseActivity(CRef cr) const {
    double activity = 0.0;
    std::memcpy(&activity, &arena_[static_cast<size_t>(cr + 2 + clauseSize(cr))],
                sizeof activity);
    return activity;
}

void SatSolver::setClauseActivity(CRef cr, double activity) {
    std::memcpy(&arena_[static_cast<size_t>(cr + 2 + clauseSize(cr))], &activity,
                sizeof activity);
}

SatSolver::CRef SatSolver::allocClause(const std::vector<SatLit>& lits, bool learnt, int lbd) {
    const auto cr = static_cast<CRef>(arena_.size());
    arena_.push_back(static_cast<int>(lits.size()) << 2 | (learnt ? kLearntBit : 0));
    arena_.insert(arena_.end(), lits.begin(), lits.end());
    if (learnt) {
        arena_.push_back(lbd);
        arena_.resize(arena_.size() + kLearntExtraWords - 1);
        setClauseActivity(cr, 0.0);
    }
    ++liveClauses_;
    return cr;
}

void SatSolver::attachClause(CRef cref) {
    assert(clauseSize(cref) >= 2);
    const SatLit* lits = clauseLits(cref);
    watches_[satNeg(lits[0])].push_back({cref, lits[1]});
    watches_[satNeg(lits[1])].push_back({cref, lits[0]});
}

void SatSolver::deleteClause(CRef cref) {
    const SatLit* lits = clauseLits(cref);
    for (int w = 0; w < 2; ++w) {
        auto& ws = watches_[satNeg(lits[w])];
        for (size_t k = 0; k < ws.size(); ++k) {
            if (ws[k].cref == cref) {
                ws[k] = ws.back();
                ws.pop_back();
                break;
            }
        }
    }
    arena_[cref] |= kDeletedBit;
    wastedWords_ += clauseWords(arena_[cref]);
    --liveClauses_;
}

void SatSolver::addClause(std::vector<SatLit> lits) {
    if (!ok_) return;
    assert(decisionLevel() == 0);
    ++clausesAdded_;
    // Simplify under the level-0 assignment; remove duplicates & tautologies.
    std::sort(lits.begin(), lits.end());
    std::vector<SatLit> out;
    SatLit prev = -1;
    for (SatLit l : lits) {
        if (l == prev) {
            ++hygieneLitsDropped_;
            continue;
        }
        if (prev >= 0 && satVar(l) == satVar(prev)) { // Tautology (l, ~l).
            ++hygieneDrops_;
            return;
        }
        uint8_t v = litValue(l);
        if (v == kTrue) { // Satisfied already.
            ++hygieneDrops_;
            return;
        }
        if (v == kFalse) { // Falsified literal dropped.
            ++hygieneLitsDropped_;
            continue;
        }
        out.push_back(l);
        prev = l;
    }
    if (out.empty()) {
        ok_ = false;
        return;
    }
    if (out.size() == 1) {
        if (!enqueue(out[0], kCRefUndef)) {
            ok_ = false;
            return;
        }
        if (propagate() != kCRefUndef) ok_ = false;
        return;
    }
    attachClause(allocClause(out, /*learnt=*/false, 0));
}

void SatSolver::closeClauseGroup(SatLit group) {
    addUnit(satNeg(group));
    const auto var = static_cast<size_t>(satVar(group));
    if (!released_[var]) {
        released_[var] = 1;
        ++releasedVars_;
    }
}

bool SatSolver::enqueue(SatLit l, CRef reason) {
    uint8_t v = litValue(l);
    if (v != kUndef) return v == kTrue;
    int var = satVar(l);
    assigns_[var] = satSign(l) ? kFalse : kTrue;
    levels_[var] = decisionLevel();
    reasons_[var] = reason;
    trail_.push_back(l);
    return true;
}

SatSolver::CRef SatSolver::propagate() {
    while (qhead_ < trail_.size()) {
        SatLit p = trail_[qhead_++];
        ++propagations_;
        auto& ws = watches_[p];
        size_t i = 0, j = 0;
        while (i < ws.size()) {
            Watcher w = ws[i];
            if (litValue(w.blocker) == kTrue) {
                ws[j++] = ws[i++];
                continue;
            }
            SatLit* lits = clauseLits(w.cref);
            const int size = clauseSize(w.cref);
            // Ensure the false literal is lits[1].
            SatLit falseLit = satNeg(p);
            if (lits[0] == falseLit) std::swap(lits[0], lits[1]);
            assert(lits[1] == falseLit);
            ++i;
            if (litValue(lits[0]) == kTrue) {
                ws[j++] = {w.cref, lits[0]};
                continue;
            }
            // Find a new literal to watch.
            bool found = false;
            for (int k = 2; k < size; ++k) {
                if (litValue(lits[k]) != kFalse) {
                    std::swap(lits[1], lits[k]);
                    watches_[satNeg(lits[1])].push_back({w.cref, lits[0]});
                    found = true;
                    break;
                }
            }
            if (found) continue;
            // Unit or conflicting.
            ws[j++] = {w.cref, lits[0]};
            if (litValue(lits[0]) == kFalse) {
                // Conflict: copy remaining watchers and return.
                while (i < ws.size()) ws[j++] = ws[i++];
                ws.resize(j);
                qhead_ = trail_.size();
                return w.cref;
            }
            enqueue(lits[0], w.cref);
        }
        ws.resize(j);
    }
    return kCRefUndef;
}

void SatSolver::bumpVarActivity(int var) {
    activity_[var] += varInc_;
    if (activity_[var] > kRescaleLimit) {
        for (double& a : activity_) a *= 1e-100;
        varInc_ *= 1e-100;
    }
    heapUpdate(var);
}

void SatSolver::heapSiftUp(size_t i) {
    int var = heap_[i];
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (activity_[heap_[parent]] >= activity_[var]) break;
        heap_[i] = heap_[parent];
        heapPos_[heap_[i]] = static_cast<int>(i);
        i = parent;
    }
    heap_[i] = var;
    heapPos_[var] = static_cast<int>(i);
}

void SatSolver::heapSiftDown(size_t i) {
    int var = heap_[i];
    for (;;) {
        size_t left = 2 * i + 1;
        if (left >= heap_.size()) break;
        size_t best = left;
        size_t right = left + 1;
        if (right < heap_.size() && activity_[heap_[right]] > activity_[heap_[left]]) best = right;
        if (activity_[heap_[best]] <= activity_[var]) break;
        heap_[i] = heap_[best];
        heapPos_[heap_[i]] = static_cast<int>(i);
        i = best;
    }
    heap_[i] = var;
    heapPos_[var] = static_cast<int>(i);
}

void SatSolver::heapInsert(int var) {
    if (heapPos_[var] >= 0) return;
    heap_.push_back(var);
    heapPos_[var] = static_cast<int>(heap_.size() - 1);
    heapSiftUp(heap_.size() - 1);
}

void SatSolver::heapUpdate(int var) {
    if (heapPos_[var] >= 0) heapSiftUp(static_cast<size_t>(heapPos_[var]));
}

int SatSolver::heapPopMax() {
    int var = heap_[0];
    heapPos_[var] = -1;
    int last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heapPos_[last] = 0;
        heapSiftDown(0);
    }
    return var;
}

void SatSolver::bumpClauseActivity(CRef cr) {
    const double activity = clauseActivity(cr) + clauseInc_;
    setClauseActivity(cr, activity);
    if (activity > kRescaleLimit) {
        for (CRef l : learnts_) setClauseActivity(l, clauseActivity(l) * 1e-100);
        clauseInc_ *= 1e-100;
    }
}

void SatSolver::decayActivities() {
    varInc_ /= kVarDecay;
    clauseInc_ /= kClauseDecay;
}

void SatSolver::analyze(CRef conflict, std::vector<SatLit>& learnt, int& backtrackLevel,
                        int& lbd) {
    learnt.clear();
    learnt.push_back(0); // Placeholder for the asserting literal.
    int counter = 0;
    SatLit p = -1;
    size_t index = trail_.size();

    CRef reason = conflict;
    do {
        assert(reason != kCRefUndef);
        if (isLearnt(reason)) bumpClauseActivity(reason);
        const SatLit* lits = clauseLits(reason);
        const int size = clauseSize(reason);
        for (int k = (p == -1 ? 0 : 1); k < size; ++k) {
            SatLit q = lits[k];
            int var = satVar(q);
            if (!seen_[var] && levels_[var] > 0) {
                seen_[var] = 1;
                bumpVarActivity(var);
                if (levels_[var] >= decisionLevel())
                    ++counter;
                else
                    learnt.push_back(q);
            }
        }
        // Pick the next literal to resolve on.
        while (!seen_[satVar(trail_[--index])]) {
        }
        p = trail_[index];
        seen_[satVar(p)] = 0;
        reason = reasons_[satVar(p)];
        --counter;
    } while (counter > 0);
    learnt[0] = satNeg(p);

    // Conflict-clause minimization (self-subsumption, local).
    std::vector<SatLit> minimized;
    minimized.push_back(learnt[0]);
    for (size_t i = 1; i < learnt.size(); ++i) {
        SatLit q = learnt[i];
        CRef r = reasons_[satVar(q)];
        bool redundant = false;
        if (r != kCRefUndef) {
            redundant = true;
            const SatLit* rlits = clauseLits(r);
            for (int k = 0; k < clauseSize(r); ++k) {
                SatLit rl = rlits[k];
                if (satVar(rl) == satVar(q)) continue;
                if (!seen_[satVar(rl)] && levels_[satVar(rl)] > 0) {
                    redundant = false;
                    break;
                }
            }
        }
        if (!redundant) minimized.push_back(q);
    }
    for (size_t i = 1; i < learnt.size(); ++i) seen_[satVar(learnt[i])] = 0;
    learnt = std::move(minimized);

    // Compute backtrack level & LBD.
    backtrackLevel = 0;
    if (learnt.size() > 1) {
        size_t maxIdx = 1;
        for (size_t i = 2; i < learnt.size(); ++i)
            if (levels_[satVar(learnt[i])] > levels_[satVar(learnt[maxIdx])]) maxIdx = i;
        std::swap(learnt[1], learnt[maxIdx]);
        backtrackLevel = levels_[satVar(learnt[1])];
    }
    std::vector<int> lbdLevels;
    for (SatLit l : learnt) lbdLevels.push_back(levels_[satVar(l)]);
    std::sort(lbdLevels.begin(), lbdLevels.end());
    lbd = static_cast<int>(std::unique(lbdLevels.begin(), lbdLevels.end()) - lbdLevels.begin());
}

void SatSolver::cancelUntil(int level) {
    if (decisionLevel() <= level) return;
    for (size_t i = trail_.size(); i > static_cast<size_t>(trailLims_[level]);) {
        --i;
        int var = satVar(trail_[i]);
        phase_[var] = assigns_[var];
        assigns_[var] = kUndef;
        reasons_[var] = kCRefUndef;
        heapInsert(var);
    }
    trail_.resize(static_cast<size_t>(trailLims_[level]));
    trailLims_.resize(static_cast<size_t>(level));
    qhead_ = trail_.size();
}

void SatSolver::analyzeFinal(CRef conflict, SatLit failedAssumption) {
    conflictCore_.clear();
    if (decisionLevel() == 0) return;
    std::vector<uint8_t>& seen = seen_;
    auto markClause = [&](CRef cr) {
        const SatLit* lits = clauseLits(cr);
        for (int k = 0; k < clauseSize(cr); ++k) {
            int var = satVar(lits[k]);
            if (levels_[var] > 0) seen[var] = 1;
        }
    };
    if (conflict != kCRefUndef) {
        markClause(conflict);
    } else {
        // A propagated literal contradicts `failedAssumption`: start from
        // the chain that forced its negation.
        int var = satVar(failedAssumption);
        seen[var] = 1;
        conflictCore_.push_back(failedAssumption);
    }
    for (size_t i = trail_.size(); i-- > static_cast<size_t>(trailLims_.empty() ? 0 : trailLims_[0]);) {
        int var = satVar(trail_[i]);
        if (!seen[var]) continue;
        seen[var] = 0;
        CRef reason = reasons_[var];
        if (reason == kCRefUndef) {
            // A decision at assumption time: part of the core.
            conflictCore_.push_back(trail_[i]);
        } else {
            markClause(reason);
            seen[var] = 0;
        }
    }
    // Clear any leftover marks below the first decision level.
    for (SatLit l : conflictCore_) seen[satVar(l)] = 0;
}

SatLit SatSolver::pickBranchLit() {
    if (trail_.size() == assigns_.size()) {
        // Every variable is assigned: popping the heap would only drain it.
        // Empty it at once; cancelUntil refills it in trail order either way.
        for (int var : heap_) heapPos_[var] = -1;
        heap_.clear();
        return -1;
    }
    while (!heap_.empty()) {
        int var = heapPopMax();
        if (assigns_[var] == kUndef) return mkSatLit(var, phase_[var] == kFalse);
    }
    return -1;
}

uint64_t SatSolver::luby(uint64_t i) {
    // Luby sequence: 1,1,2,1,1,2,4,...
    uint64_t k = 1;
    while ((uint64_t{1} << k) - 1 < i + 1) ++k;
    while ((uint64_t{1} << (k - 1)) - 1 != i) {
        i = i - ((uint64_t{1} << (k - 1)) - 1);
        k = 1;
        while ((uint64_t{1} << k) - 1 < i + 1) ++k;
    }
    return uint64_t{1} << (k - 1);
}

void SatSolver::resetSearchState() {
    if (decisionLevel() != 0) return;
    varInc_ = 1.0;
    std::fill(activity_.begin(), activity_.end(), 0.0);
    for (size_t v = 0; v < phase_.size(); ++v) phase_[v] = kFalse;
    // Rebuild the order heap: with all activities equal it degenerates to
    // (deterministic) variable order, like a fresh solver's.
    heap_.clear();
    std::fill(heapPos_.begin(), heapPos_.end(), -1);
    for (int v = 0; v < static_cast<int>(assigns_.size()); ++v)
        if (assigns_[v] == kUndef) heapInsert(v);
}

void SatSolver::simplify() {
    if (!ok_ || decisionLevel() != 0) return;
    auto isLockedReason = [&](CRef cr) {
        const SatLit* lits = clauseLits(cr);
        for (int k = 0; k < clauseSize(cr); ++k)
            if (reasons_[satVar(lits[k])] == cr) return true;
        return false;
    };
    bool removedLearnt = false;
    for (size_t at = 0; at < arena_.size(); at += clauseWords(arena_[at])) {
        const auto cr = static_cast<CRef>(at);
        if (isDeleted(cr)) continue;
        const SatLit* lits = clauseLits(cr);
        bool satisfied = false;
        for (int k = 0; k < clauseSize(cr); ++k) {
            if (litValue(lits[k]) == kTrue && levels_[satVar(lits[k])] == 0) {
                satisfied = true;
                break;
            }
        }
        if (!satisfied || isLockedReason(cr)) continue;
        removedLearnt = removedLearnt || isLearnt(cr);
        deleteClause(cr);
    }
    if (removedLearnt) {
        size_t out = 0;
        for (CRef cr : learnts_)
            if (!isDeleted(cr)) learnts_[out++] = cr;
        learnts_.resize(out);
    }
}

std::optional<std::vector<int>> SatSolver::collectGarbage() {
    if (!ok_ || decisionLevel() != 0 || qhead_ != trail_.size()) return std::nullopt;
    const size_t garbage = wastedWords_ + kVarWords * (releasedVars_ - releasedKept_);
    const size_t live = arena_.size() + kVarWords * assigns_.size() - garbage;
    if (garbage < std::max(live, kMinGarbageWords)) return std::nullopt;
    return collect();
}

std::vector<int> SatSolver::collect() {
    assert(ok_ && decisionLevel() == 0 && qhead_ == trail_.size());
    const size_t numVarsBefore = assigns_.size();
    // A released variable is dropped once nothing names it: no live clause
    // (so its watch lists are empty too), no level-0 reason, no heap slot.
    std::vector<int> varMap(numVarsBefore, 0);
    for (size_t at = 0; at < arena_.size(); at += clauseWords(arena_[at])) {
        const auto cr = static_cast<CRef>(at);
        if (isDeleted(cr)) continue;
        const SatLit* lits = clauseLits(cr);
        for (int k = 0; k < clauseSize(cr); ++k) varMap[static_cast<size_t>(satVar(lits[k]))] = 1;
    }
    int kept = 0;
    for (size_t v = 0; v < numVarsBefore; ++v) {
        const bool named = varMap[v] != 0 || heapPos_[v] >= 0 || reasons_[v] != kCRefUndef;
        varMap[v] = released_[v] && !named ? -1 : kept++;
    }

    // Live clauses move to a fresh arena in creation order with renamed
    // literals. Each old header is overwritten with its clause's new
    // offset: the forward address every clause reference is renamed by.
    std::vector<int> fresh;
    fresh.reserve(2 * (arena_.size() - wastedWords_));
    for (size_t at = 0; at < arena_.size();) {
        const int header = arena_[at];
        const size_t words = clauseWords(header);
        if ((header & kDeletedBit) == 0) {
            const size_t moved = fresh.size();
            fresh.insert(fresh.end(), arena_.begin() + static_cast<std::ptrdiff_t>(at),
                         arena_.begin() + static_cast<std::ptrdiff_t>(at + words));
            for (size_t k = 1; k <= static_cast<size_t>(header >> 2); ++k)
                fresh[moved + k] = relabelSatLit(varMap, fresh[moved + k]);
            arena_[at] = static_cast<CRef>(moved);
        }
        at += words;
    }
    auto forward = [this](CRef cr) {
        return cr == kCRefUndef ? kCRefUndef : arena_[static_cast<size_t>(cr)];
    };

    // Per-variable state and watch lists close ranks in variable order; a
    // watch list keeps its watcher order.
    for (size_t v = 0; v < numVarsBefore; ++v) {
        if (varMap[v] < 0) {
            assert(watches_[2 * v].empty() && watches_[2 * v + 1].empty());
            continue;
        }
        const auto nv = static_cast<size_t>(varMap[v]);
        if (nv != v) {
            assigns_[nv] = assigns_[v];
            model_[nv] = model_[v];
            phase_[nv] = phase_[v];
            levels_[nv] = levels_[v];
            reasons_[nv] = reasons_[v];
            released_[nv] = released_[v];
            activity_[nv] = activity_[v];
            seen_[nv] = seen_[v];
            heapPos_[nv] = heapPos_[v];
            watches_[2 * nv] = std::move(watches_[2 * v]);
            watches_[2 * nv + 1] = std::move(watches_[2 * v + 1]);
        }
        reasons_[nv] = forward(reasons_[nv]);
        for (size_t sign = 0; sign < 2; ++sign) {
            for (Watcher& w : watches_[2 * nv + sign]) {
                w.cref = forward(w.cref);
                w.blocker = relabelSatLit(varMap, w.blocker);
            }
        }
    }
    const auto numVarsAfter = static_cast<size_t>(kept);
    assigns_.resize(numVarsAfter);
    model_.resize(numVarsAfter);
    phase_.resize(numVarsAfter);
    levels_.resize(numVarsAfter);
    reasons_.resize(numVarsAfter);
    released_.resize(numVarsAfter);
    activity_.resize(numVarsAfter);
    seen_.resize(numVarsAfter);
    heapPos_.resize(numVarsAfter);
    watches_.resize(2 * numVarsAfter);
    for (int& var : heap_) var = varMap[static_cast<size_t>(var)];
    for (CRef& cr : learnts_) cr = forward(cr);
    // Level 0 is fully propagated, so its trail order no longer matters
    // and a dropped variable simply leaves it.
    auto renameSurvivors = [&varMap](std::vector<SatLit>& lits) {
        size_t out = 0;
        for (SatLit l : lits)
            if (varMap[static_cast<size_t>(satVar(l))] >= 0) lits[out++] = relabelSatLit(varMap, l);
        lits.resize(out);
    };
    renameSurvivors(trail_);
    qhead_ = trail_.size();
    renameSurvivors(conflictCore_);

    arena_ = std::move(fresh);
    wastedWords_ = 0;
    releasedVars_ = static_cast<size_t>(std::count(released_.begin(), released_.end(), 1));
    releasedKept_ = releasedVars_;
    return varMap;
}

void SatSolver::reduceDB() {
    std::sort(learnts_.begin(), learnts_.end(), [&](CRef a, CRef b) {
        const int lbdA = clauseLbd(a);
        const int lbdB = clauseLbd(b);
        if (lbdA != lbdB) return lbdA > lbdB;
        return clauseActivity(a) < clauseActivity(b);
    });
    size_t target = learnts_.size() / 2;
    std::vector<CRef> kept;
    for (size_t i = 0; i < learnts_.size(); ++i) {
        CRef cr = learnts_[i];
        bool locked = false;
        // Keep clauses that are reasons for current assignments.
        const SatLit* lits = clauseLits(cr);
        for (int k = 0; k < clauseSize(cr); ++k) {
            if (reasons_[satVar(lits[k])] == cr && litValue(lits[k]) == kTrue) {
                locked = true;
                break;
            }
        }
        if (i < target && !locked && clauseLbd(cr) > 2)
            deleteClause(cr);
        else
            kept.push_back(cr);
    }
    learnts_ = std::move(kept);
}

SatResult SatSolver::solve(const std::vector<SatLit>& assumptions) {
    ++solves_;
    if (!ok_) return SatResult::Unsat;
    cancelUntil(0);
    if (stopRequested()) return SatResult::Interrupted;
    // Fault injection: a spurious Interrupted with no deadline expired,
    // modelling a cancelled-from-outside solve at an arbitrary point in the
    // run. Every caller must treat it exactly like a deadline: degrade
    // to Unknown or retry, never adopt a verdict from it.
    if (robust::faultFire(robust::FaultSite::SolverInterrupt))
        return SatResult::Interrupted;

    if (propagate() != kCRefUndef) {
        ok_ = false;
        return SatResult::Unsat;
    }

    uint64_t restartCount = 0;
    uint64_t restartLimit = 64 * luby(restartCount);
    uint64_t conflictsSinceRestart = 0;

    std::vector<SatLit> learnt;

    for (;;) {
        CRef conflict = propagate();
        if (conflict != kCRefUndef) {
            ++conflicts_;
            ++conflictsSinceRestart;
            if (decisionLevel() == 0) {
                ok_ = false;
                return SatResult::Unsat;
            }
            // A conflict at or below the assumption levels is final: those
            // levels hold only assumption decisions (pickBranchLit decides
            // above them), so it is UNSAT under the assumptions.
            if (decisionLevel() <= static_cast<int>(assumptions.size())) {
                analyzeFinal(conflict, -1);
                cancelUntil(0);
                return SatResult::Unsat;
            }
            int backtrackLevel = 0;
            int lbd = 0;
            analyze(conflict, learnt, backtrackLevel, lbd);
            // Never backtrack past the assumptions.
            cancelUntil(backtrackLevel);
            if (learnt.size() == 1) {
                if (decisionLevel() != 0) cancelUntil(0);
                if (!enqueue(learnt[0], kCRefUndef)) {
                    ok_ = false;
                    return SatResult::Unsat;
                }
            } else {
                CRef cr = allocClause(learnt, /*learnt=*/true, lbd);
                learnts_.push_back(cr);
                attachClause(cr);
                bumpClauseActivity(cr);
                enqueue(learnt[0], cr);
            }
            decayActivities();
            if (stopRequested()) {
                cancelUntil(0);
                return SatResult::Interrupted;
            }
            if (learnts_.size() > maxLearnts_) {
                reduceDB();
                maxLearnts_ = maxLearnts_ + maxLearnts_ / 3;
            }
            if (conflictsSinceRestart >= restartLimit) {
                if (stopRequested()) {
                    cancelUntil(0);
                    return SatResult::Interrupted;
                }
                conflictsSinceRestart = 0;
                restartLimit = 64 * luby(++restartCount);
                // Restart to the assumption boundary, not level 0: the
                // first assumptions.size() levels hold the (possibly empty)
                // assumption decisions, and re-deciding them after every
                // restart would re-propagate the whole assumption prefix —
                // ruinous for long-lived solvers whose per-query facts are
                // assumption-activated rather than level-0 units.
                cancelUntil(std::min(decisionLevel(),
                                     static_cast<int>(assumptions.size())));
            }
            continue;
        }

        // Decide: assumptions first.
        SatLit next = -1;
        while (decisionLevel() < static_cast<int>(assumptions.size())) {
            SatLit a = assumptions[static_cast<size_t>(decisionLevel())];
            uint8_t v = litValue(a);
            if (v == kTrue) {
                trailLims_.push_back(static_cast<int>(trail_.size())); // Empty level.
                continue;
            }
            if (v == kFalse) {
                analyzeFinal(kCRefUndef, a);
                cancelUntil(0);
                return SatResult::Unsat;
            }
            next = a;
            break;
        }
        if (next == -1) {
            next = pickBranchLit();
            if (next == -1) {
                // Full model found.
                model_.assign(assigns_.begin(), assigns_.end());
                cancelUntil(0);
                return SatResult::Sat;
            }
            ++decisions_;
        }
        trailLims_.push_back(static_cast<int>(trail_.size()));
        enqueue(next, kCRefUndef);
    }
}

} // namespace autosva::formal
