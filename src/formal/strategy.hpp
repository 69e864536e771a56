// Proof strategies for the obligation scheduler.
//
// Each strategy is one algorithm for discharging a proof obligation and
// only acts on jobs whose status is still Unknown. All of them are free
// functions: the scheduler probes with BMC in batches (runBmcBatch) and
// runs PDR as its barrier stage — one runPdr per open job, the only path
// that proves. Each invocation builds its own SatSolver / Unroller (one
// per worker batch for the BMC sweep), reading only the immutable
// structures referenced by the ProofContext and writing only its jobs.
// That makes each strategy independently testable and safe to
// parallelize.
#pragma once

#include <atomic>
#include <unordered_map>
#include <vector>

#include "cache/fingerprint.hpp"
#include "formal/aig.hpp"
#include "formal/bitblast.hpp"
#include "formal/pdr.hpp"
#include "formal/result.hpp"
#include "formal/sat.hpp"
#include "formal/unroll.hpp"
#include "rtlir/design.hpp"

namespace autosva::formal {

/// Engine counters with thread-safe accumulation across workers.
struct SharedStats {
    std::atomic<uint64_t> satCalls{0};
    std::atomic<uint64_t> conflicts{0};
    std::atomic<uint64_t> propagations{0};
    std::atomic<uint64_t> encoderVars{0};
    std::atomic<uint64_t> encoderClauses{0};
    std::atomic<uint64_t> conesMaterialized{0};
    std::atomic<uint64_t> solverReuses{0};
    std::atomic<uint64_t> pdrFramesOpened{0};
    std::atomic<uint64_t> pdrCubesBlocked{0};
    std::atomic<uint64_t> pdrGenDropAttempts{0};
    std::atomic<uint64_t> pdrSeedCubesAdmitted{0};
    std::atomic<uint64_t> pdrLiftedLiterals{0};
    std::atomic<uint64_t> pdrConflicts{0};
    std::atomic<uint64_t> pdrPropagations{0};
    std::atomic<uint64_t> pdrBadQueries{0};
    std::atomic<uint64_t> pdrBlockQueries{0};
    std::atomic<uint64_t> pdrValidateQueries{0};
    std::atomic<uint64_t> pdrDropQueries{0};
    std::atomic<uint64_t> pdrPushQueries{0};
    std::atomic<uint64_t> pdrSideSolves{0};
    std::atomic<uint64_t> hygieneClausesDropped{0};
    std::atomic<uint64_t> solverLiveClauses{0};
    std::atomic<uint64_t> solverLearntClauses{0};

    /// Folds one pdrCheck's observability counters into the run totals.
    void addPdr(const PdrStats& pdr) {
        pdrFramesOpened.fetch_add(pdr.framesOpened, std::memory_order_relaxed);
        pdrCubesBlocked.fetch_add(pdr.cubesBlocked, std::memory_order_relaxed);
        pdrGenDropAttempts.fetch_add(pdr.genDropAttempts, std::memory_order_relaxed);
        pdrSeedCubesAdmitted.fetch_add(pdr.seedCubesAdmitted, std::memory_order_relaxed);
        pdrLiftedLiterals.fetch_add(pdr.liftedLiterals, std::memory_order_relaxed);
        pdrConflicts.fetch_add(pdr.conflicts, std::memory_order_relaxed);
        pdrPropagations.fetch_add(pdr.propagations, std::memory_order_relaxed);
        pdrBadQueries.fetch_add(pdr.badQueries, std::memory_order_relaxed);
        pdrBlockQueries.fetch_add(pdr.blockQueries, std::memory_order_relaxed);
        pdrValidateQueries.fetch_add(pdr.validateQueries, std::memory_order_relaxed);
        pdrDropQueries.fetch_add(pdr.dropQueries, std::memory_order_relaxed);
        pdrPushQueries.fetch_add(pdr.pushQueries, std::memory_order_relaxed);
        pdrSideSolves.fetch_add(pdr.sideSolves, std::memory_order_relaxed);
    }

    /// Folds one strategy-layer solver's encoder cost, clause-hygiene
    /// drops, and live clause footprint into the run totals.
    void addEncoder(const SatSolver& solver, const Unroller& un) {
        encoderVars.fetch_add(static_cast<uint64_t>(solver.numVars()),
                              std::memory_order_relaxed);
        encoderClauses.fetch_add(solver.clausesAdded(), std::memory_order_relaxed);
        conesMaterialized.fetch_add(un.conesMaterialized(), std::memory_order_relaxed);
        hygieneClausesDropped.fetch_add(solver.hygieneDrops(), std::memory_order_relaxed);
        solverLiveClauses.fetch_add(solver.liveClauses(), std::memory_order_relaxed);
        solverLearntClauses.fetch_add(solver.liveLearnts(), std::memory_order_relaxed);
    }

    [[nodiscard]] EngineStats snapshot(double totalSeconds) const {
        EngineStats s;
        s.satCalls = satCalls.load(std::memory_order_relaxed);
        s.conflicts = conflicts.load(std::memory_order_relaxed);
        s.propagations = propagations.load(std::memory_order_relaxed);
        s.encoderVars = encoderVars.load(std::memory_order_relaxed);
        s.encoderClauses = encoderClauses.load(std::memory_order_relaxed);
        s.conesMaterialized = conesMaterialized.load(std::memory_order_relaxed);
        s.solverReuses = solverReuses.load(std::memory_order_relaxed);
        s.pdrFramesOpened = pdrFramesOpened.load(std::memory_order_relaxed);
        s.pdrCubesBlocked = pdrCubesBlocked.load(std::memory_order_relaxed);
        s.pdrGenDropAttempts = pdrGenDropAttempts.load(std::memory_order_relaxed);
        s.pdrSeedCubesAdmitted = pdrSeedCubesAdmitted.load(std::memory_order_relaxed);
        s.pdrLiftedLiterals = pdrLiftedLiterals.load(std::memory_order_relaxed);
        s.pdrConflicts = pdrConflicts.load(std::memory_order_relaxed);
        s.pdrPropagations = pdrPropagations.load(std::memory_order_relaxed);
        s.pdrBadQueries = pdrBadQueries.load(std::memory_order_relaxed);
        s.pdrBlockQueries = pdrBlockQueries.load(std::memory_order_relaxed);
        s.pdrValidateQueries = pdrValidateQueries.load(std::memory_order_relaxed);
        s.pdrDropQueries = pdrDropQueries.load(std::memory_order_relaxed);
        s.pdrPushQueries = pdrPushQueries.load(std::memory_order_relaxed);
        s.pdrSideSolves = pdrSideSolves.load(std::memory_order_relaxed);
        s.hygieneClausesDropped = hygieneClausesDropped.load(std::memory_order_relaxed);
        s.solverLiveClauses = solverLiveClauses.load(std::memory_order_relaxed);
        s.solverLearntClauses = solverLearntClauses.load(std::memory_order_relaxed);
        s.totalSeconds = totalSeconds;
        return s;
    }
};

/// Adds each frame's environment constraints to an incremental BMC solver
/// exactly once, tracking the last-constrained frame — shared by the
/// batched sweep and bmcFromReset, so neither re-walks already-constrained
/// frames.
inline void constrainFramesTo(Unroller& un, SatSolver& solver,
                              const std::vector<AigLit>& constraints, int frame,
                              int& lastConstrained) {
    for (int f = lastConstrained + 1; f <= frame; ++f)
        for (AigLit c : constraints) solver.addUnit(un.lit(f, c));
    if (frame > lastConstrained) lastConstrained = frame;
}

/// One proof obligation flowing through the scheduler, with its job-local
/// result slot. Exactly one worker owns a job at any time, so strategies
/// mutate `result` without synchronization.
struct ObligationJob {
    const ir::Obligation* ob = nullptr;
    size_t index = 0;       ///< Obligation declaration index — the determinism key.
    AigLit bad = kAigFalse; ///< In the AIG named by `onLiveAig`.
    /// Bad literal PDR proves; usually == bad, but liveness lemma chaining
    /// strengthens it with already-proven justice trackers. Counterexample
    /// search always targets the original `bad`.
    AigLit pdrBad = kAigFalse;
    bool onLiveAig = false;
    bool coverMode = false; ///< Sat = Covered / proven-unreachable semantics.
    /// Candidate invariant cubes for PDR: a liveness chain link's share of
    /// the invariants proven before it, plus the prior run's lemmas after
    /// a proof-cache near-miss. Candidates only — PDR re-validates before
    /// use.
    std::vector<PdrCube> pdrSeeds;
    /// PDR's inductive invariant when it proved this job (cache fodder and
    /// later chain links' seeds).
    std::vector<PdrCube> invariant;
    /// Proof-cache key of the job's current stage, computed by its cache
    /// lookup; the stage's store records under the same key.
    cache::Fingerprint fp;
    uint64_t structKey = 0; ///< Near-miss key of the same lookup.
    /// The job's deadline while its PDR stage runs (null = no deadline, or
    /// outside the stage). The scheduler sets it for exactly that span;
    /// strategies bind it into every solver they build for the job so an
    /// expired deadline interrupts in-flight solves.
    const robust::Deadline* deadline = nullptr;
    PropertyResult result;
};

/// Everything a strategy may read while discharging a job. All referenced
/// structures are immutable for the duration of a parallel phase.
struct ProofContext {
    const ir::Design& design;
    const BitBlast& bb;
    const Aig& aig;                         ///< Base or l2s AIG for this job.
    const std::vector<AigLit>& constraints; ///< Hold in every frame.
    const EngineOptions& opts;
    AigLit saveOracle = kAigFalse;          ///< l2s save input (live AIG only).
    SharedStats* stats = nullptr;
    /// The run's deadline: expires on --time-budget or an external stop,
    /// never on per-job timeouts. Solvers that serve many jobs at once (the
    /// batched-BMC sweep solver) bind it instead of a job's deadline, and
    /// each job deadline checks it first. Null = no run deadline.
    const robust::Deadline* runDeadline = nullptr;
};

/// Bounded model checking from the initial state on a throwaway solver:
/// asks for `job.bad` at frames 0..maxDepth and concludes at the first Sat
/// depth with the shortest counterexample (or cover witness); an
/// Interrupted solve leaves the job Unknown at that frame. Counts its
/// solves, conflicts, propagations and encoder cost into ctx.stats, opens
/// no span, and returns its solve count. The PDR counterexample replay.
uint64_t bmcFromReset(const ProofContext& ctx, ObligationJob& job, int maxDepth);

/// bmcFromReset under a `strategy/bmc` span: the batched sweep's lasso
/// replay and the reference the sweep is tested against.
void runBmcFresh(const ProofContext& ctx, ObligationJob& job, int maxDepth);

/// Frame-lockstep batched BMC over one worker's job batch: a single
/// incremental solver queries every still-open job at frame k before any
/// job advances to k+1, so environment constraints and per-job Unsat
/// strengthening stay level-0 units shared by the whole batch (see
/// strategy_bmc.cpp for the soundness argument). Concluding jobs get their
/// status/depth/trace set exactly as runBmcFresh would set them.
void runBmcBatch(const ProofContext& ctx, const std::vector<ObligationJob*>& jobs);

/// One IC3/PDR search of `job.pdrBad` at opts.pdrMaxQueries, with the
/// job's seeds, the perturbation seed and `job.deadline`. Folds the
/// search's solves and PDR counters into ctx.stats and its `strategy/pdr`
/// span, and maps the verdict onto the job: Proven / Unreachable with the
/// invariant, a counterexample replayed by bmcFromReset on the original
/// `job.bad` (shortest trace, its solves counted and attributed to `pdr`),
/// or the Unknown depth. An interrupted search is never a verdict.
void runPdr(const ProofContext& ctx, ObligationJob& job);

/// Word-level counterexample extraction from a satisfied unrolling:
/// initial registers, per-frame inputs, and (for lassos) the save point.
[[nodiscard]] CexTrace extractCexTrace(const ProofContext& ctx, Unroller& un,
                                       SatSolver& solver, int frames);

/// Liveness-to-safety transformation (Biere/Artho/Schuppan): extends a copy
/// of the base AIG with a save oracle, shadow state, loop-closure detection,
/// fairness trackers and per-justice-obligation "seen" trackers. Justice
/// obligations become safety bad nets checkable by the strategies above.
/// The transformed AIG shares variable numbering with the base AIG, so base
/// literals (e.g. proven safety invariants) remain valid on it.
class LivenessTransform {
public:
    LivenessTransform(const ir::Design& design, const BitBlast& bb,
                      const std::vector<AigLit>& fairness);

    [[nodiscard]] const Aig& aig() const { return aig_; }
    /// Mutable access for sequential lemma chaining only — never call while
    /// workers read the AIG.
    [[nodiscard]] Aig& mutableAig() { return aig_; }
    [[nodiscard]] AigLit saveOracle() const { return saveOracle_; }
    /// Bad net of a justice obligation: loop closed, fairness seen, justice
    /// never seen inside the loop.
    [[nodiscard]] AigLit bad(const ir::Obligation* ob) const { return bads_.at(ob); }
    /// In-loop "justice seen" tracker (lemma source once proven).
    [[nodiscard]] AigLit seen(const ir::Obligation* ob) const { return seens_.at(ob); }

private:
    Aig aig_;
    AigLit saveOracle_ = kAigFalse;
    std::unordered_map<const ir::Obligation*, AigLit> bads_;
    std::unordered_map<const ir::Obligation*, AigLit> seens_;
};

} // namespace autosva::formal
