// Shared result types of the formal layer: per-property verdicts,
// counterexample traces, engine options and counters. Split out of
// engine.hpp so the scheduler / strategy units and the reports can depend
// on them without pulling in the engine facade.
#pragma once

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "robust/deadline.hpp"
#include "rtlir/design.hpp"

namespace autosva::obs {
class Recorder;
}

namespace autosva::formal {

/// Counterexample in terms of the word-level design: initial register
/// state plus input values per frame. Replayable on the simulator.
struct CexTrace {
    std::unordered_map<std::string, uint64_t> initialRegs;
    std::vector<std::unordered_map<std::string, uint64_t>> inputs;
    int loopStart = -1; ///< >= 0 for liveness lassos: frame where the loop begins.

    [[nodiscard]] int length() const { return static_cast<int>(inputs.size()); }
};

enum class Status {
    Proven,      ///< Assertion holds (PDR found an inductive invariant).
    Failed,      ///< Counterexample found.
    Covered,     ///< Cover target reached.
    Unreachable, ///< Cover target proven unreachable.
    Unknown,     ///< Bounds exhausted without a verdict.
    Skipped,     ///< Not applicable to formal (e.g. X-propagation checks).
};

[[nodiscard]] const char* statusName(Status s);

/// Why an Unknown verdict is Unknown: the cause the obligation's deadline
/// latched, or None for the deterministic bounds-exhausted Unknown (see
/// robust::StopCause).
using UnknownReason = robust::StopCause;

[[nodiscard]] const char* unknownReasonName(UnknownReason r);

struct PropertyResult {
    std::string name;
    ir::Obligation::Kind kind = ir::Obligation::Kind::SafetyBad;
    Status status = Status::Unknown;
    int depth = -1;      ///< CEX length / PDR convergence frame / cover depth / bound.
    double seconds = 0.0;
    bool cached = false; ///< Served from the proof cache (no SAT work).
    /// Set (non-None) only when status is Unknown because a deadline or
    /// stop degraded this obligation; see UnknownReason.
    UnknownReason unknownReason = UnknownReason::None;
    CexTrace trace;      ///< Valid when Failed or Covered.
    /// Provenance: the designer annotation (file:line) the property was
    /// generated from, threaded from GeneratedProperty::sourceLoc through
    /// the elaborated obligation. Never part of canonical() — cache
    /// artifacts predating this field would otherwise mismatch.
    util::SourceLoc loc;

    [[nodiscard]] bool isFailure() const { return status == Status::Failed; }
};

struct EngineOptions {
    /// Max BMC unrolling depth. BMC is a shallow probe, not the
    /// counterexample search: at 8 it still finds every registry cover and
    /// lasso (the deepest is 6 frames). PDR proves everything that holds
    /// and finds every counterexample deeper than the probe, and runPdr
    /// replays each PDR counterexample on a fresh solver searching up from
    /// k = 0 — bmcFromReset, the loop runBmcFresh's lasso replay runs — so
    /// reported depths, trace lengths and loop starts are the shortest ones
    /// whatever this bound is; canonical reports do not depend on it. Why 8, measured with `autosva run-design --no-cache`
    /// on a 4-vCPU x86 host: at 4, noc_buffer BUG=1's depth-5/6
    /// counterexamples move to PDR (0.06 s -> 1.3 s), and every frame past
    /// 8 adds sweeps over properties PDR proves anyway (the seven cold
    /// Table III designs take 3.7 / 4.3 / 5.0 s at 8 / 10 / 12, ~14 s at
    /// 25). Trade-off: a counterexample deeper than 8 that PDR cannot reach
    /// within pdrMaxQueries is Unknown. A deeper probe finds only those,
    /// and its sweep cost grows steeply with depth: l15_noc_wrapper takes
    /// 0.07 s at 8, 0.3 s at 12, 7.6 s at 16 (491, 8,151 and 149,067
    /// conflicts) and minutes at 25. In the cache options digest.
    int bmcDepth = 8;
    /// PDR SAT-query budget per property: one search per obligation, never
    /// extended. Seed admission and the level-0 check run outside it.
    uint64_t pdrMaxQueries = 1000000;
    /// Non-zero: deterministically perturbs every ordering the engine
    /// canonicalizes anyway — job submission order into the batched phases
    /// and the PDR stages, plus cube/seed submission order inside PDR.
    /// Canonical reports must be byte-identical for every seed; this is the
    /// perturbation-fuzz hook (tests/test_pdr.cpp), not a tuning knob, and
    /// is therefore excluded from cache keys.
    uint64_t perturbSeed = 0;
    int jobs = 1;               ///< Worker threads for property discharge (<= 1: sequential).
    bool checkCovers = true;
    bool useLivenessToSafety = true; ///< false: liveness reported Unknown.
    /// Persistent proof-cache directory; empty disables the cache (exact
    /// pre-cache behavior). Cache hits skip SAT work and reproduce the
    /// recording run's results byte-for-byte. When a property's exact
    /// fingerprint misses (its RTL changed), the prior run's invariants
    /// seed PDR; seeds are re-validated before use, so they can never flip
    /// a verdict between Proven and Failed (they may move PDR depths /
    /// budget-bound Unknowns relative to an uncached run).
    std::string cacheDir;
    /// Structural AIG rewrite (strashing, absorption, latch merging) after
    /// bit-blast; shrinks every downstream encoding and fingerprint cone.
    /// Semantics-preserving and deterministic. No user-facing switch turns
    /// it off: the field exists so the rewrite-identity tests can build the
    /// unrewritten graph as their reference.
    bool aigRewrite = true;
    /// Structured-tracing recorder (src/obs/); null disables tracing at
    /// the cost of one pointer test per instrumentation site. Tracing is
    /// verdict-inert — canonical reports are byte-identical with it on or
    /// off for any jobs count — and this field is deliberately absent from
    /// the cache options digest (cache/fingerprint.cpp hashes an explicit
    /// field list), so attaching a recorder can never move a cache key.
    /// The recorder must outlive the run.
    obs::Recorder* trace = nullptr;
    // -- Robustness (src/robust/) -------------------------------------------
    // Wall-clock deadlines are *degradation* knobs, not verdict knobs: a
    // run that finishes without hitting one reports exactly what it would
    // have reported with no deadline set, so — like jobs/perturbSeed — all
    // three fields below are deliberately absent from the cache options
    // digest, and obligations that DO hit a deadline are reported
    // Unknown(reason) and never cached.
    /// Whole-run wall-clock budget in seconds (0 = unlimited). On expiry
    /// every in-flight solve is cancelled and remaining obligations drain
    /// as Unknown(run-budget); the run still reports every obligation.
    double timeBudgetSeconds = 0.0;
    /// Per-obligation wall-clock deadline in seconds (0 = unlimited). It
    /// bounds the obligation's PDR stage; BMC sweeps serve many obligations
    /// at once and answer to timeBudgetSeconds instead.
    double obligationTimeoutSeconds = 0.0;
    /// External orderly-stop flag (the CLI's SIGINT/SIGTERM handler sets
    /// it); the run's deadline checks it. The pointee must outlive the run.
    const std::atomic<bool>* stopFlag = nullptr;
};

struct EngineStats {
    uint64_t satCalls = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    uint64_t cacheLookups = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheStores = 0;
    uint64_t cacheSeededLemmas = 0;
    /// Encoder counters over the strategy-layer solvers (the BMC sweeps,
    /// lasso and cex replays; PDR's internal frame solvers keep their own
    /// query counter). These are what solver reuse and the AIG rewrite
    /// shrink.
    uint64_t encoderVars = 0;       ///< Tseitin variables created.
    uint64_t encoderClauses = 0;    ///< Problem clauses added.
    uint64_t conesMaterialized = 0; ///< Unroller root cones encoded on demand.
    uint64_t solverReuses = 0;      ///< Jobs a BMC sweep solver served beyond its first.
    /// PDR observability (aggregated over every pdrCheck of the run; the
    /// --stats "pdr:" line and the --stats-json manifest carry them).
    uint64_t pdrFramesOpened = 0;      ///< Frame solvers constructed.
    uint64_t pdrCubesBlocked = 0;      ///< Generalized cubes added to, or moved up, the frames.
    uint64_t pdrGenDropAttempts = 0;   ///< Literal-drop consecution probes.
    /// Always 0: PDR no longer retries a budget-edge search. Kept only
    /// because the benchmark harness (perfbench/harness.cpp) still reads it.
    uint64_t pdrRetryFallbacks = 0;
    uint64_t pdrSeedCubesAdmitted = 0; ///< Seed cubes (chain, cache) surviving re-validation.
    uint64_t pdrLiftedLiterals = 0;    ///< Model-cube literals removed by lifting.
    /// SAT work inside PDR: every frame solver, level-0 check and seed
    /// admission solver. `conflicts` / `propagations` above count only the
    /// strategy-layer solvers (BMC, cex replay).
    uint64_t pdrConflicts = 0;
    uint64_t pdrPropagations = 0;
    /// PDR's solves by kind (PdrStats); the six sum to the PDR share of
    /// `satCalls` before counterexample replays.
    uint64_t pdrBadQueries = 0;
    uint64_t pdrBlockQueries = 0;
    uint64_t pdrValidateQueries = 0;
    uint64_t pdrDropQueries = 0;
    uint64_t pdrPushQueries = 0;
    uint64_t pdrSideSolves = 0;
    /// Always 0: the SAT solvers no longer eliminate variables. Kept only
    /// because the benchmark harness (perfbench/harness.cpp) still reads it.
    uint64_t satPreVarsEliminated = 0;
    /// Clauses dropped whole at addClause entry, over every strategy solver
    /// (the --stats "encoder:" line).
    uint64_t hygieneClausesDropped = 0;
    /// Memory observability (the --stats "mem:" line and --stats-json).
    uint64_t solverLiveClauses = 0;  ///< Live problem+learnt clauses, summed at fold time.
    uint64_t solverLearntClauses = 0;///< Live learnt clauses, summed at fold time.
    uint64_t peakRssKb = 0;          ///< getrusage peak RSS of the run (KiB; 0 if unavailable).
    /// Wall clock of phase A (safety assertions + covers, full pipeline).
    double phaseASeconds = 0.0;
    /// Wall clock of the liveness phase (frontier + the PDR lemma chain).
    double phaseBSeconds = 0.0;
    /// Robustness observability (the --stats "robust:" line): obligations
    /// degraded to Unknown by a deadline or stop, and the cause the run's
    /// deadline latched (a formal::UnknownReason value; 0 = none).
    uint64_t deadlineDegraded = 0;
    uint64_t runStopCause = 0;
    /// Proof-cache degradation: non-empty when the cache dropped to
    /// memory-only (unwritable dir, failed append, injected fault) — the
    /// `cache: disabled (reason)` --stats line and the one-shot stderr
    /// warning carry it.
    std::string cacheDegradedReason;
    double totalSeconds = 0.0;
};

} // namespace autosva::formal
