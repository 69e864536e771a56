#include "formal/pdr.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <random>

#include "formal/sat.hpp"
#include "formal/ternary_sim.hpp"
#include "formal/unroll.hpp"

namespace autosva::formal {

namespace {

using Cube = PdrCube;

/// Canonical cube form: literals sorted by (stable var rank, value) and
/// deduplicated. Var ids are creation-ordered on a given AIG, so this is a
/// deterministic function of the literal *set* — every cube entering the
/// search passes through here, which is what makes the whole query
/// sequence invariant to the order literals were submitted in.
Cube canonicalize(Cube cube) {
    std::sort(cube.begin(), cube.end());
    cube.erase(std::unique(cube.begin(), cube.end()), cube.end());
    return cube;
}

/// How many retired consecution clause groups accumulate before the frame
/// solver purges them from its watch lists. Every retired group is dead
/// weight on propagation; amortizing the purge keeps simplify() off the
/// per-query hot path. Safe to run at all now that generalization is
/// ordering-insensitive (the watch-order reshuffle simplify causes used to
/// flip budget-edge proofs — see the ROADMAP history). The cadence is part
/// of the search: simplify() reorders watch lists, so changing it moves
/// every PDR trajectory.
constexpr uint32_t kSimplifyEvery = 64;

/// Folds a short-lived solver's search counters (level-0 check, seed
/// admission) into `stats` when it goes out of scope, on every exit path.
class CountSolverWork {
public:
    CountSolverWork(const SatSolver& solver, PdrStats& stats) : solver_(solver), stats_(stats) {}
    CountSolverWork(const CountSolverWork&) = delete;
    CountSolverWork& operator=(const CountSolverWork&) = delete;
    ~CountSolverWork() {
        stats_.conflicts += solver_.conflicts();
        stats_.propagations += solver_.propagations();
    }

private:
    const SatSolver& solver_;
    PdrStats& stats_;
};

/// One SAT context per frame: the transition relation (frame 0 = current
/// state, frame 1 resolves to next-state functions) plus the frame's
/// learned clauses over current-state latch literals. Lives as long as the
/// search — consecution queries retire their clause groups and the solver
/// is periodically simplified, so the encoding never rebuilds.
struct FrameSolver {
    std::unique_ptr<SatSolver> solver;
    std::unique_ptr<Unroller> un;
    uint32_t retiredGroups = 0;

    FrameSolver(const Aig& aig, const robust::Deadline* deadline) {
        solver = std::make_unique<SatSolver>();
        solver->bindDeadline(deadline);
        un = std::make_unique<Unroller>(aig, *solver, Unroller::Init::Free);
    }

    /// Current-state literal of `l` / next-state literal of a latch.
    SatLit now(AigLit l) { return un->lit(0, l); }
    SatLit next(uint32_t latchVar) { return un->lit(1, aigMkLit(latchVar)); }

    /// Retires a consecution query's clause group and periodically purges
    /// the dead groups from the watch lists (SatSolver::simplify), so a
    /// long-lived frame solver doesn't drag thousands of permanently
    /// satisfied clauses through every later propagation. After a purge
    /// the solver may collect its garbage (the purged clauses and the
    /// groups' activation variables) and renumber its variables; the
    /// Unroller's literal table is the only place the search keeps frame
    /// solver literals across queries, so relabeling it completes the
    /// renaming.
    void retireGroup(SatLit act) {
        solver->closeClauseGroup(act);
        if (++retiredGroups % kSimplifyEvery != 0) return;
        solver->simplify();
        if (auto varMap = solver->collectGarbage()) un->relabel(*varMap);
    }
};

struct PdrSearch {
    const Aig& aig;
    AigLit bad;
    const std::vector<AigLit>& constraints;
    const PdrOptions& opts;
    /// The search's own queries: what opts.maxQueries bounds. The side
    /// solves (stats.sideSolves) run outside it.
    uint64_t queries = 0;
    /// A SAT query answered Interrupted. Sticky: whatever raised it (an
    /// expired deadline, or an injected spurious Interrupted with no
    /// deadline at all — see robust/faultinject.hpp), the search must unwind
    /// through interruptedResult() rather than keep reasoning over answers
    /// that may reflect stale models.
    bool interruptedSeen = false;
    PdrStats stats;
    std::mt19937_64 perturbRng; ///< Only used when opts.perturbSeed != 0.
    TernarySim sim;             ///< Lifts every SAT model to a cube (liftModel).

    std::vector<std::unique_ptr<FrameSolver>> solvers; // Index = frame.
    std::vector<std::vector<Cube>> frames;             // Learned cubes per frame.
    /// The one frame each learned cube sits at: frames[] holds every cube
    /// once, so propagation pushes it once per iteration, and solver i
    /// holds the clause of each cube at frames >= i exactly once.
    std::map<Cube, size_t> cubeFrame;
    std::vector<Cube> invariantCubes; // Validated seeds: hold at every frame.

    PdrSearch(const Aig& a, AigLit b, const std::vector<AigLit>& cons, const PdrOptions& o)
        : aig(a), bad(b), constraints(cons), opts(o), perturbRng(o.perturbSeed), sim(a) {}

    /// Has the search's deadline expired? Checked at every decision point
    /// that could otherwise turn an Interrupted SAT answer into a
    /// fabricated verdict (solvers return Interrupted for any solve() once
    /// the deadline expired, which reads as "no bad state" / "not
    /// inductive" to the callers below — safe individually, but the outer
    /// loop must never conclude from such answers). Also raised by
    /// interruptedSeen, which covers Interrupted answers that arrive
    /// without any deadline (injected faults) — one unexplained Interrupted
    /// and the search unwinds instead of trusting later models.
    [[nodiscard]] bool stopRaised() const {
        return interruptedSeen || (opts.deadline && opts.deadline->expired());
    }

    /// Perturbation-fuzz hook: shuffles a sequence that is canonicalized
    /// immediately afterwards. With perturbSeed == 0 this is a no-op; with
    /// any other seed the downstream canonicalization must absorb the
    /// shuffle — the fuzz test asserts exactly that.
    template <typename Seq> void perturb(Seq& seq) {
        if (opts.perturbSeed == 0 || seq.size() < 2) return;
        std::shuffle(seq.begin(), seq.end(), perturbRng);
    }

    FrameSolver& frameSolver(size_t i) {
        while (solvers.size() <= i) {
            auto fs = std::make_unique<FrameSolver>(aig, opts.deadline);
            ++stats.framesOpened;
            // Constraints hold in the current state of every frame.
            for (AigLit c : constraints) fs->solver->addUnit(fs->now(c));
            if (solvers.empty()) {
                // Frame 0 additionally encodes the initial states.
                for (uint32_t lv : aig.latches()) {
                    int init = aig.latchInit(lv);
                    if (init < 0) continue;
                    SatLit l = fs->now(aigMkLit(lv));
                    fs->solver->addUnit(init ? l : satNeg(l));
                }
            }
            // Replay learned clauses: a clause stored at frame j holds at all
            // frames <= j, so the solver for frame `idx` carries every cube
            // from frames idx and above.
            size_t idx = solvers.size();
            solvers.push_back(std::move(fs));
            for (const Cube& c : invariantCubes) addBlockedClauseToSolver(idx, c);
            for (size_t j = idx; j < frames.size(); ++j)
                for (const Cube& c : frames[j]) addBlockedClauseToSolver(idx, c);
        }
        return *solvers[i];
    }

    void ensureFrameStorage(size_t i) {
        while (frames.size() <= i) frames.emplace_back();
    }

    void addBlockedClauseToSolver(size_t frameIdx, const Cube& cube) {
        FrameSolver& fs = *solvers[frameIdx];
        std::vector<SatLit> clause;
        clause.reserve(cube.size());
        for (auto [var, val] : cube) {
            SatLit l = fs.now(aigMkLit(var));
            clause.push_back(val ? satNeg(l) : l);
        }
        fs.solver->addClause(std::move(clause));
    }

    /// Blocks canonical `cube` at all frames 0..frameIdx. A cube a frame
    /// >= frameIdx already holds is left where it is; one held lower moves
    /// up, and only the solvers between the two frames get its clause.
    void addBlockedCube(size_t frameIdx, const Cube& cube) {
        auto [it, isNew] = cubeFrame.try_emplace(cube, frameIdx);
        size_t firstSolver = 0;
        if (!isNew) {
            const size_t held = it->second;
            if (held >= frameIdx) return;
            auto& lower = frames[held];
            lower.erase(std::find(lower.begin(), lower.end(), cube));
            it->second = frameIdx;
            firstSolver = held + 1;
        }
        ensureFrameStorage(frameIdx);
        frames[frameIdx].push_back(cube);
        ++stats.cubesBlocked;
        for (size_t i = firstSolver; i <= frameIdx && i < solvers.size(); ++i)
            addBlockedClauseToSolver(i, cube);
    }

    /// Does the cube contain the initial states? (A cube intersects Init iff
    /// none of its literals contradicts a defined init value.)
    [[nodiscard]] bool intersectsInit(const Cube& cube) const {
        for (auto [var, val] : cube) {
            int init = aig.latchInit(var);
            if (init >= 0 && (init != 0) != val) return false;
        }
        return true;
    }

    /// Lifts the last SAT model of `fs` to a cube: ternary simulation with
    /// the model's inputs and latches, `outputs` watched, sets each latch
    /// to X in ascending variable order and keeps the X whenever every
    /// output stays determined. Every completion of the dropped latches,
    /// under the model's inputs, gives every output its model value, so a
    /// lifted predecessor reaches the cube (and a lifted bad state is bad)
    /// from each of its states, and a lifted cube that meets Init is a real
    /// counterexample. The model is read only from latches the frame
    /// solver already encodes (peek): a latch no query of this solver ever
    /// reached is outside every cone asked about, and reading it would
    /// add a variable. Deterministic in the model, so canonical queries
    /// keep giving canonical obligations.
    Cube liftModel(FrameSolver& fs, std::vector<AigLit> outputs) {
        outputs.insert(outputs.end(), constraints.begin(), constraints.end());
        const SatSolver& solver = *fs.solver;
        for (uint32_t v : sim.watch(outputs)) {
            // Every source of the cone has a model value: a query encodes
            // the whole cone of what it asks about.
            const SatLit l = fs.un->peek(0, aigMkLit(v));
            if (l != Unroller::kUnset)
                sim.set(v, modelBit(solver, l) ? Ternary::True : Ternary::False);
        }
        sim.simulate();
        Cube cube;
        for (uint32_t lv : aig.latches()) {
            const SatLit l = fs.un->peek(0, aigMkLit(lv));
            if (l == Unroller::kUnset) continue;
            if (sim.inCone(lv) && !sim.tryX(lv))
                cube.emplace_back(lv, modelBit(solver, l));
            else
                ++stats.liftedLiterals;
        }
        return cube;
    }

    /// SAT query: F_frame /\ not(cube) /\ T /\ cube'. Returns true if UNSAT
    /// (cube is inductive relative to the frame); on SAT fills
    /// `predecessor` with the model's current state, lifted to the cube's
    /// next-state functions and the constraints (liftModel); on UNSAT
    /// fills `coreCube` (if given) with the subset of cube literals
    /// whose primed assumptions appear in the unsat core. `cube` must be
    /// canonical — assumptions follow its literal order, so canonical input
    /// keeps the query byte-identical however the cube was first assembled.
    /// `kind` is the PdrStats counter of what the caller asks.
    bool consecution(uint64_t& kind, size_t frameIdx, const Cube& cube, Cube* predecessor,
                     Cube* coreCube = nullptr) {
        ++queries;
        ++kind;
        FrameSolver& fs = frameSolver(frameIdx);
        std::vector<SatLit> assumptions;
        // not(cube) in a single-query clause group (released below).
        SatLit act = fs.solver->openClauseGroup();
        std::vector<SatLit> notCube;
        for (auto [var, val] : cube) {
            SatLit l = fs.now(aigMkLit(var));
            notCube.push_back(val ? satNeg(l) : l);
        }
        fs.solver->addClauseIn(act, std::move(notCube));
        assumptions.push_back(act);
        // cube' on the next-state functions.
        std::vector<SatLit> primedLits;
        for (auto [var, val] : cube) {
            SatLit l = fs.next(var);
            primedLits.push_back(val ? l : satNeg(l));
            assumptions.push_back(primedLits.back());
        }
        SatResult r = fs.solver->solve(assumptions);
        if (r == SatResult::Interrupted) interruptedSeen = true;
        bool unsat = r == SatResult::Unsat;
        if (r == SatResult::Sat && predecessor) {
            std::vector<AigLit> nexts;
            nexts.reserve(cube.size());
            for (auto [var, val] : cube) nexts.push_back(aig.latchNext(var));
            *predecessor = liftModel(fs, std::move(nexts));
        }
        if (unsat && coreCube) {
            coreCube->clear();
            const auto& core = fs.solver->conflictCore();
            auto inCore = [&](SatLit l) {
                for (SatLit c : core)
                    if (c == l) return true;
                return false;
            };
            for (size_t i = 0; i < cube.size(); ++i)
                if (inCore(primedLits[i])) coreCube->push_back(cube[i]);
            // The shrunk cube must still exclude the initial states: if it
            // now intersects Init, restore one distinguishing literal.
            if (intersectsInit(*coreCube)) {
                for (size_t i = 0; i < cube.size(); ++i) {
                    auto [var, val] = cube[i];
                    int init = aig.latchInit(var);
                    if (init >= 0 && (init != 0) != val) {
                        coreCube->push_back(cube[i]);
                        break;
                    }
                }
            }
            if (coreCube->empty()) *coreCube = cube;
            *coreCube = canonicalize(std::move(*coreCube));
        }
        fs.retireGroup(act); // Retire the temporary clause.
        return unsat;
    }

    /// Is `bad` reachable within F_frame? On SAT fills `state` with the
    /// model lifted to `bad` and the constraints (liftModel).
    bool badState(size_t frameIdx, Cube* state) {
        ++queries;
        ++stats.badQueries;
        FrameSolver& fs = frameSolver(frameIdx);
        SatLit b = fs.now(bad);
        SatResult r = fs.solver->solve({b});
        if (r == SatResult::Interrupted) interruptedSeen = true;
        if (r != SatResult::Sat) return false;
        *state = liftModel(fs, {bad});
        return true;
    }

    /// Admits the mutually-inductive subset of the seed cubes as
    /// frame-independent invariants. Seeds come from an untrusted source
    /// (the proof cache, possibly for an edited design), so each candidate
    /// only survives a greatest-fixpoint filter under consecution: start
    /// from every well-formed, Init-disjoint candidate and repeatedly drop
    /// cubes whose clause is not inductive relative to the survivors. The
    /// surviving conjunction S satisfies Init => S and S /\ C /\ T /\ C' =>
    /// S', so it over-approximates nothing reachable — blocking it at every
    /// frame is sound no matter what the cache contained.
    ///
    /// The candidate list is canonicalized (per-cube literal sort plus a
    /// lexicographic sort of the cubes themselves) before any query, so
    /// the admitted subset cannot depend on the order the cache returned
    /// the seeds in — the greatest fixpoint is order-independent, but the
    /// bounded validation budget would otherwise make the cutoff point
    /// submission-order-sensitive.
    ///
    /// Validation runs on its own bounded query budget, deliberately NOT
    /// charged to the search's `queries`: a stale or oversized seed set
    /// must never eat the proof budget and demote an otherwise-provable
    /// property to Unknown. Its solves still count in PdrResult::queries.
    /// If the validation budget runs out before the fixpoint closes, every
    /// seed is discarded.
    void admitSeedCubes() {
        if (!opts.seedCubes || opts.seedCubes->empty()) return;
        std::vector<Cube> cand;
        cand.reserve(opts.seedCubes->size());
        for (const Cube& seed : *opts.seedCubes) {
            if (seed.empty()) continue;
            bool wellFormed = true;
            for (auto [var, val] : seed) {
                (void)val;
                if (var >= aig.numVars() || aig.kind(var) != Aig::VarKind::Latch)
                    wellFormed = false;
            }
            if (!wellFormed) continue;
            Cube cube = canonicalize(seed);
            if (intersectsInit(cube)) continue;
            cand.push_back(std::move(cube));
        }
        perturb(cand); // Fuzz hook; the sort below must absorb it.
        std::sort(cand.begin(), cand.end());
        cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
        if (cand.empty()) return;

        // One incremental solver: T with constraints in both states, each
        // candidate clause behind an activation literal so dropped cubes
        // leave the premise.
        SatSolver solver;
        CountSolverWork count{solver, stats};
        solver.bindDeadline(opts.deadline);
        Unroller un(aig, solver, Unroller::Init::Free);
        for (AigLit c : constraints) {
            solver.addUnit(un.lit(0, c));
            solver.addUnit(un.lit(1, c));
        }
        std::vector<SatLit> act(cand.size());
        for (size_t i = 0; i < cand.size(); ++i) {
            act[i] = solver.openClauseGroup();
            std::vector<SatLit> clause;
            for (auto [var, val] : cand[i]) {
                SatLit l = un.lit(0, aigMkLit(var));
                clause.push_back(val ? satNeg(l) : l);
            }
            solver.addClauseIn(act[i], std::move(clause));
        }
        const uint64_t seedBudget = 20000;
        uint64_t seedQueries = 0;
        std::vector<char> alive(cand.size(), 1);
        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t i = 0; i < cand.size(); ++i) {
                if (!alive[i]) continue;
                if (seedQueries >= seedBudget) return; // Unvalidated: use none.
                ++seedQueries;
                ++stats.sideSolves;
                std::vector<SatLit> assumptions;
                for (size_t j = 0; j < cand.size(); ++j)
                    if (alive[j]) assumptions.push_back(act[j]);
                for (auto [var, val] : cand[i]) {
                    SatLit l = un.lit(1, aigMkLit(var));
                    assumptions.push_back(val ? l : satNeg(l));
                }
                SatResult sr = solver.solve(assumptions);
                if (sr == SatResult::Interrupted) return; // Cancelled: use none.
                if (sr != SatResult::Unsat) {
                    alive[i] = 0;
                    changed = true;
                }
            }
        }
        for (size_t i = 0; i < cand.size(); ++i) {
            if (!alive[i]) continue;
            ++stats.seedCubesAdmitted;
            // Frame solvers created later inherit the admitted clause via
            // frameSolver(); any already-open solver gets it here (the
            // seeds are frame-independent invariants, so every frame may
            // block them).
            for (size_t idx = 0; idx < solvers.size(); ++idx)
                addBlockedClauseToSolver(idx, cand[i]);
            invariantCubes.push_back(std::move(cand[i]));
        }
    }

    /// The inductive invariant once frame `closedFrame` equals its
    /// successor: every clause at or above the convergence point plus the
    /// admitted seed invariants.
    [[nodiscard]] std::vector<Cube> collectInvariant(size_t closedFrame) const {
        std::vector<Cube> inv = invariantCubes;
        for (size_t j = closedFrame; j < frames.size(); ++j)
            inv.insert(inv.end(), frames[j].begin(), frames[j].end());
        std::sort(inv.begin(), inv.end());
        inv.erase(std::unique(inv.begin(), inv.end()), inv.end());
        return inv;
    }

    /// Shrinks a blocked cube: first via unsat cores (cheap, large steps),
    /// then a fixed-point literal-drop sweep on the remainder, always
    /// keeping the cube inductive relative to F_{frameIdx} and disjoint
    /// from Init. `core` is the unsat core of the query that found `cube`
    /// inductive, so no query is asked twice.
    ///
    /// Ordering-insensitive by construction: the cube and its core come
    /// from a canonical query and each sweep attempts drops in canonical
    /// literal order, repeating until a full sweep removes nothing. The
    /// result is a function of the literal *set* and the frame state —
    /// never of the order the caller assembled the cube in. That is the
    /// hardening that lets simplify() run and the AIG rewrite default ON
    /// without budget-edge proofs flipping (see ROADMAP "Engine
    /// architecture").
    Cube generalize(size_t frameIdx, Cube cube, Cube core) {
        // Core-based shrinking. A core-shrunk cube is a candidate only —
        // weakening not(cube) can break inductiveness — so validate before
        // adopting; the validation's own core is the next candidate
        // (fixpoint in practice after 1-2 rounds).
        for (int round = 0; round < 4; ++round) {
            if (core.size() >= cube.size()) break;
            if (intersectsInit(core)) break;
            Cube nextCore;
            if (!consecution(stats.validateQueries, frameIdx, core, nullptr, &nextCore))
                break; // Not inductive: keep cube.
            cube = std::exchange(core, std::move(nextCore));
        }
        // Literal dropping on the (now small) cube: sweep the literals in
        // canonical order; on narrow cubes, repeat until a sweep drops
        // nothing (the fixed point — a later drop can free up an earlier
        // literal). Wide cubes get a single sweep: an unbounded fixpoint is
        // O(n^2) consecution queries there and measurably starves the
        // per-property budget. Both regimes are deterministic functions of
        // the literal set and the frame state — never of the input order,
        // which is the hardening contract.
        constexpr size_t kFixpointWidth = 12;
        bool changed = true;
        for (int sweepNo = 0;
             changed && cube.size() > 1 && (sweepNo == 0 || cube.size() <= kFixpointWidth);
             ++sweepNo) {
            changed = false;
            const Cube sweep = cube;
            for (const auto& lit : sweep) {
                if (cube.size() <= 1) break;
                auto it = std::find(cube.begin(), cube.end(), lit);
                if (it == cube.end()) continue; // Already dropped this sweep.
                Cube candidate = cube;
                candidate.erase(candidate.begin() + (it - cube.begin()));
                ++stats.genDropAttempts;
                if (!intersectsInit(candidate) &&
                    consecution(stats.dropQueries, frameIdx, candidate, nullptr)) {
                    cube = std::move(candidate);
                    changed = true;
                }
            }
        }
        return cube;
    }

    /// The unwind path for an expired deadline. Soundness note: once the
    /// deadline expired, every SAT call reports Interrupted, which
    /// consecution()/badState() surface as "not inductive"/"no bad state"
    /// — each individually safe (they only suppress progress), but the
    /// loops below must never *conclude* from such answers. Hence the
    /// explicit checks at every point that could otherwise mint a verdict:
    /// run() entry, the frame-loop head, the obligation-loop head (before
    /// a possibly-stale predecessor is consumed), and the gap between
    /// blocking and propagation (badState lying "no bad state" must not
    /// flow into the frames-equal Proven check).
    [[nodiscard]] PdrResult interruptedResult() const {
        PdrResult result;
        result.kind = PdrResult::Kind::Unknown;
        result.interrupted = true;
        return result;
    }

    PdrResult run() {
        PdrResult result;
        if (stopRaised()) return interruptedResult();

        // Level 0: is bad reachable in the initial state itself?
        {
            SatSolver s0;
            CountSolverWork count{s0, stats};
            s0.bindDeadline(opts.deadline);
            Unroller u0(aig, s0, Unroller::Init::Reset);
            std::vector<SatLit> assumptions{u0.lit(0, bad)};
            for (AigLit c : constraints) s0.addUnit(u0.lit(0, c));
            ++stats.sideSolves;
            SatResult r0 = s0.solve(assumptions);
            if (r0 == SatResult::Interrupted) return interruptedResult();
            if (r0 == SatResult::Sat) {
                result.kind = PdrResult::Kind::Cex;
                result.depth = 0;
                return result;
            }
        }

        // Re-validate and admit any seed invariants before the main loop.
        admitSeedCubes();

        // Proof obligations: (frame, cube, depth-from-bad) — recursive blocking.
        struct Obligation {
            size_t frame;
            Cube cube;
            int depth;
        };

        for (size_t k = 1; static_cast<int>(k) <= opts.maxFrames; ++k) {
            if (stopRaised()) return interruptedResult();
            ensureFrameStorage(k);
            // Block all bad states reachable within F_k.
            Cube badCube;
            while (badState(k, &badCube)) {
                if (queries > opts.maxQueries) {
                    result.kind = PdrResult::Kind::Unknown;
                    return result;
                }
                std::vector<Obligation> obligations;
                perturb(badCube); // Fuzz hook; canonicalize absorbs it.
                obligations.push_back({k, canonicalize(std::move(badCube)), 0});
                while (!obligations.empty()) {
                    // Stop before the budget check: an interrupted search
                    // must report interrupted, not exhausted, and the top
                    // obligation may hold a stale-model predecessor
                    // consecution filled under interruption — it must never
                    // be consumed.
                    if (stopRaised()) return interruptedResult();
                    if (queries > opts.maxQueries) {
                        result.kind = PdrResult::Kind::Unknown;
                        return result;
                    }
                    Obligation ob = obligations.back();
                    if (ob.frame == 0) {
                        // Reached the initial frame: counterexample.
                        result.kind = PdrResult::Kind::Cex;
                        result.depth = ob.depth + static_cast<int>(k); // Upper bound on length.
                        return result;
                    }
                    if (intersectsInit(ob.cube)) {
                        result.kind = PdrResult::Kind::Cex;
                        result.depth = ob.depth + static_cast<int>(ob.frame);
                        return result;
                    }
                    Cube predecessor, core;
                    if (consecution(stats.blockQueries, ob.frame - 1, ob.cube, &predecessor,
                                    &core)) {
                        Cube generalized = generalize(ob.frame - 1, ob.cube, std::move(core));
                        addBlockedCube(ob.frame, generalized);
                        obligations.pop_back();
                    } else {
                        perturb(predecessor); // Fuzz hook; canonicalize absorbs it.
                        obligations.push_back(
                            {ob.frame - 1, canonicalize(std::move(predecessor)), ob.depth + 1});
                    }
                }
            }

            // An interrupted badState() reports "no bad state" — it must not
            // fall through into the frames-equal Proven check below.
            if (stopRaised()) return interruptedResult();

            // Propagation: push clauses forward; a frame whose clauses all moved
            // up equals its successor, closing the inductive invariant.
            for (size_t i = 1; i < k; ++i) {
                auto& cubes = frames[i];
                for (size_t ci = 0; ci < cubes.size();) {
                    if (consecution(stats.pushQueries, i, cubes[ci], nullptr)) {
                        Cube moved = std::move(cubes[ci]);
                        cubes.erase(cubes.begin() + static_cast<long>(ci));
                        cubeFrame[moved] = i + 1;
                        frames[i + 1].push_back(moved);
                        if (i + 1 < solvers.size()) addBlockedClauseToSolver(i + 1, moved);
                        continue;
                    }
                    ++ci;
                }
                if (cubes.empty()) {
                    result.kind = PdrResult::Kind::Proven;
                    result.depth = static_cast<int>(i);
                    result.invariant = collectInvariant(i);
                    return result;
                }
            }
        }

        result.kind = PdrResult::Kind::Unknown;
        result.depth = opts.maxFrames;
        return result;
    }
};

} // namespace

PdrResult pdrCheck(const Aig& aig, AigLit bad, const std::vector<AigLit>& constraints,
                   const PdrOptions& opts) {
    PdrSearch search(aig, bad, constraints, opts);
    PdrResult result = search.run();
    for (const auto& fs : search.solvers) {
        search.stats.conflicts += fs->solver->conflicts();
        search.stats.propagations += fs->solver->propagations();
    }
    result.queries = search.queries + search.stats.sideSolves;
    result.stats = search.stats;
    return result;
}

} // namespace autosva::formal
