// Aggregation and rendering of per-property model-checking results into
// the verification reports the paper's evaluation tables are built from.
#pragma once

#include <string>
#include <vector>

#include "formal/result.hpp"

namespace autosva::sva {

/// Frontend-side counters of a verification run. The typed-AST property
/// pipeline hands the generated property module to the elaborator as AST,
/// so `generatedTextReparses` is 0 on every `autosva run`/`run-design`
/// path (the CLI --stats line reports it; tests/test_pipeline.cpp gates
/// it); the fallback of re-parsing printed text only exists for
/// hand-built testbenches without an AST.
struct FrontendStats {
    uint64_t sourcesParsed = 0;         ///< RTL buffers lexed + parsed this run.
    uint64_t generatedTextReparses = 0; ///< Generated property text re-parsed (0 on AST path).
    uint64_t generatedAstReused = 0;    ///< Property-module ASTs elaborated directly.
};

/// Summary of one formal-testbench run on a DUT.
struct VerificationReport {
    std::string dutName;
    std::vector<formal::PropertyResult> results;
    /// Full engine counters of the run: SAT calls, conflicts, encoder
    /// vars/clauses, cones, solver reuses, and the proof-cache
    /// lookup/hit/seed counters (0 when the cache is disabled) — the CLI's
    /// --stats and --cache-stats source. Never part of canonical():
    /// counters legitimately vary with jobs, cache state, and solver reuse.
    formal::EngineStats engineStats;
    /// Frontend parse counters of the run (also excluded from canonical()).
    FrontendStats frontend;

    // -- Aggregates --------------------------------------------------------
    [[nodiscard]] size_t count(formal::Status status) const;
    [[nodiscard]] size_t totalChecked() const; ///< Excludes Skipped.
    /// Results served from the proof cache without SAT work.
    [[nodiscard]] size_t numCached() const;
    [[nodiscard]] size_t numProven() const { return count(formal::Status::Proven); }
    [[nodiscard]] size_t numFailed() const { return count(formal::Status::Failed); }
    /// Proof rate over assert-type obligations (proven / (proven+failed+unknown)).
    [[nodiscard]] double proofRate() const;
    [[nodiscard]] bool allProven() const;
    [[nodiscard]] bool anyFailed() const { return numFailed() > 0; }
    /// True when any result is a deadline/interruption-degraded Unknown
    /// (PropertyResult::unknownReason set): the run terminated early, every
    /// verdict present is sound, but the report is NOT covered by the
    /// canonical-identity contract — a rerun with more time may decide
    /// what this run left Unknown.
    [[nodiscard]] bool degraded() const;

    /// First failing result, if any.
    [[nodiscard]] const formal::PropertyResult* firstFailure() const;
    [[nodiscard]] const formal::PropertyResult* find(const std::string& name) const;

    /// One-line outcome in the style of the paper's Table III
    /// ("100% liveness/safety properties proof", "Bug found", ...).
    [[nodiscard]] std::string outcomeSummary() const;

    /// Full per-property table.
    [[nodiscard]] std::string str() const;

    /// Canonical verdict serialization: everything a verification run must
    /// reproduce byte-for-byte (name, kind, status, trace-bearing depths,
    /// trace shape, in declaration order) and nothing it legitimately may
    /// vary (wall-clock times, engine-vs-cache provenance, proof depths —
    /// which are PDR convergence frames, engine artifacts that move with
    /// the graph representation). A warm-cache rerun, a
    /// different worker count, the AIG rewrite toggled either way, and any
    /// perturbation seed all yield the identical string for the same
    /// design.
    [[nodiscard]] std::string canonical() const;
};

} // namespace autosva::sva
