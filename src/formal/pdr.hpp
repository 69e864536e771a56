// Property Directed Reachability (IC3/PDR) — the unbounded safety prover.
//
// A shallow BMC probe finds short counterexamples; every proof comes from
// PDR. The liveness-to-safety obligations AutoSVA generates need
// reachability reasoning (a lasso through an unreachable state defeats
// plain induction): PDR incrementally learns inductive lemmas (blocked
// cubes) per frame until an inductive invariant excluding `bad` emerges —
// the same class of engine (IC3) that JasperGold uses for unbounded proofs
// in the paper's evaluation.
//
// One pdrCheck call is one search: one long-lived incremental frame solver
// per frame (clause groups for per-query facts, periodic
// SatSolver::simplify() and garbage collection to retire them, so a frame
// solver's memory follows its live clauses), canonical ordering-insensitive
// cube generalization, and re-validated seed invariants admitted before
// the first frame opens. The search asks each question once: the frames
// hold each blocked cube once, at the highest frame it was blocked or
// pushed to, so propagation pushes no copies and each frame solver gets
// each clause once; and generalization starts from the unsat core of the
// query that blocked the cube, each validation's core being the next
// candidate. Every SAT answer that becomes a proof obligation
// (a predecessor, a bad state) is lifted by ternary simulation to the
// latches that keep its cone determined (formal/ternary_sim.hpp), and the
// model is read only from latches the frame solver already encodes, so a
// cube names the state its cone depends on, not every latch of the design.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "formal/aig.hpp"
#include "robust/deadline.hpp"

namespace autosva::formal {

/// A cube over latch state: canonically sorted (latchVar, value) pairs.
/// Blocking a cube asserts the clause "not all of these values
/// simultaneously". Obligation cubes are lifted, not total states: they
/// keep only the latches a predecessor or bad state needs, so one cube
/// stands for every completion of the latches it leaves out.
using PdrCube = std::vector<std::pair<uint32_t, bool>>;

struct PdrOptions {
    /// Frames before a search gives up as Unknown. A search reaches its
    /// inductive frame well after opening it: in ariane_icache BUG=1 two
    /// safety searches end with frame 32 inductive, but only at k = 59,
    /// and the bound keeps twice that headroom.
    int maxFrames = 120;
    uint64_t maxQueries = 200000; ///< Safety valve on the search's own SAT queries.
    /// Candidate invariant cubes from earlier proofs (the proof cache, the
    /// liveness lemma chain). They are *candidates only*: the search keeps
    /// the subset that is mutually inductive (greatest fixpoint under
    /// consecution) and discards the rest, so unsound seeds cannot
    /// influence the verdict.
    const std::vector<PdrCube>* seedCubes = nullptr;
    /// Non-zero: deterministically shuffles every ordering the engine
    /// canonicalizes anyway (cube literals before sorting, seed-cube
    /// submission order) before that canonicalization. Because
    /// generalization is ordering-insensitive, any seed must produce the
    /// identical result — this is the perturbation-fuzz hook proving it,
    /// not a tuning knob.
    uint64_t perturbSeed = 0;
    /// Deadline (robust/deadline.hpp) bound into every solver this search
    /// creates (frame solvers, seed validation, the level-0 check) and
    /// checked between its steps. Once it expires, in-flight SAT calls
    /// return Interrupted at their next conflict boundary and the search
    /// unwinds with PdrResult::interrupted — never a fabricated verdict.
    /// Null = no deadline.
    const robust::Deadline* deadline = nullptr;
};

/// Observability counters of one pdrCheck call (aggregated into
/// EngineStats and the CLI --stats output).
struct PdrStats {
    uint64_t framesOpened = 0;       ///< Frame solvers constructed.
    uint64_t cubesBlocked = 0;       ///< Generalized cubes added to, or moved up, the frames.
    uint64_t genDropAttempts = 0;    ///< Literal-drop consecution probes.
    uint64_t seedCubesAdmitted = 0;  ///< Seed cubes surviving re-validation.
    /// Latch literals ternary-simulation lifting removed from the model
    /// cubes of predecessors and bad states (PdrSearch::liftModel).
    uint64_t liftedLiterals = 0;
    /// SAT work of every solver the search owns (frame solvers, the level-0
    /// check, seed admission).
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    /// Every solve of the search by kind; the six sum to PdrResult::queries.
    /// The first five are the search's own queries (what maxQueries bounds).
    uint64_t badQueries = 0;      ///< Is a bad state left in the frame?
    uint64_t blockQueries = 0;    ///< Obligation consecution: block, or a predecessor.
    uint64_t validateQueries = 0; ///< Is a core-shrunk cube still inductive?
    uint64_t dropQueries = 0;     ///< Literal-drop probes that reached the solver.
    uint64_t pushQueries = 0;     ///< Propagation: does a cube hold one frame up?
    uint64_t sideSolves = 0;      ///< Seed admission and the level-0 check.
};

struct PdrResult {
    enum class Kind { Proven, Cex, Unknown };
    Kind kind = Kind::Unknown;
    /// Proven: frame where the invariant closed. Cex: trace length bound
    /// (number of steps from the initial state to `bad`). Either value is
    /// an engine artifact of the search, not a semantic depth — reports
    /// treat it as provenance, never as part of the canonical verdict.
    int depth = -1;
    /// Kind::Unknown only: the search was cancelled (PdrOptions::deadline,
    /// or an injected Interrupted answer), not exhausted. Never adopted as
    /// a verdict.
    bool interrupted = false;
    /// Every SAT solve the search made: its own queries (what
    /// PdrOptions::maxQueries bounds) plus the seed-admission solves and
    /// the level-0 check.
    uint64_t queries = 0;
    PdrStats stats;
    /// Proven only: the inductive invariant as blocked cubes (clauses
    /// negated), i.e. every reachable state avoids each of these cubes.
    std::vector<PdrCube> invariant;
};

/// Decides reachability of `bad` (a combinational AIG literal) from the
/// initial states, under per-cycle `constraints`: one search, run until a
/// verdict, opts.maxQueries or opts.maxFrames.
[[nodiscard]] PdrResult pdrCheck(const Aig& aig, AigLit bad,
                                 const std::vector<AigLit>& constraints,
                                 const PdrOptions& opts = {});

} // namespace autosva::formal
