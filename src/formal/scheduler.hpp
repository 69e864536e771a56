// Parallel obligation scheduler: the orchestration layer of the model
// checker.
//
// Every proof obligation of a design becomes an ObligationJob. A phase
// discharges its jobs in stages: a cache pass, a frame-lockstep batched BMC
// probe (counterexamples and covers), and — for the jobs still open — one
// PDR stage at the phase barrier, which proves. Jobs are discharged by a
// pool of worker threads that claim tasks from one shared counter; each
// BMC batch shares one incremental solver, whose per-job facts are
// level-0 units implied by the constraints. The bit-blast result —
// structurally rewritten by aig_rewrite (always, except in the tests that
// build the unrewritten reference graph) — and the AIGs are shared
// immutably.
// Each job owns its result slot and run() returns the slots in
// declaration order, so the final report is deterministic — byte-identical
// statuses, depths, and ordering — regardless of worker count.
//
// Cross-property couplings are preserved by phase barriers instead of
// timing: safety invariants proven in phase A are fed to the liveness
// phase as constraints, and the liveness PDR runs as one lemma chain in
// declaration order — each justice obligation is a one-job PDR stage
// whose bad literal is strengthened by the "seen" trackers of every
// obligation the chain proved before it (which keeps the reasoning
// acyclic and the reports byte-identical for any worker count), and whose
// search is seeded with the inductive invariants proven before it: phase
// A's safety PDR proofs and every earlier link's.
//
// When EngineOptions::cacheDir is set, a persistent proof cache
// (src/cache/) sits in front of each stage: each obligation is keyed by a
// content fingerprint of its cone of influence, exact hits skip all SAT
// work, and near-misses (same property, edited RTL) seed PDR with the
// prior run's re-validated invariant lemmas. Cache lookups read an
// open-time snapshot, so verdicts stay byte-identical for any worker count
// and any cache state.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/fingerprint.hpp"
#include "formal/bitblast.hpp"
#include "formal/result.hpp"
#include "formal/strategy.hpp"
#include "rtlir/design.hpp"

namespace autosva::cache {
class ProofCache;
}

namespace autosva::formal {

class ObligationScheduler {
public:
    explicit ObligationScheduler(const ir::Design& design, EngineOptions opts = {});
    ~ObligationScheduler();

    /// Discharges every obligation of the design. Results are in obligation
    /// declaration order for any opts.jobs value.
    [[nodiscard]] std::vector<PropertyResult> run();

    [[nodiscard]] const EngineStats& stats() const { return stats_; }
    [[nodiscard]] const BitBlast& blasted() const { return bb_; }
    [[nodiscard]] const EngineOptions& options() const { return opts_; }

private:
    /// The cache pass, then the frame-lockstep batched BMC probe (one
    /// incremental solver per worker for its whole job batch), for one
    /// phase's jobs at cache `stage`. Does not store: the caller does, once
    /// the phase's PDR stage (if any) decided what the job's verdict is.
    void runPhaseBatched(const ProofContext& baseCtx,
                         const std::vector<ObligationJob*>& phaseJobs, cache::Stage stage);
    /// Appends a proven job's invariant to `seeds`: PDR's own when this run
    /// proved it, else the stored lemmas of the exact hit that served it,
    /// mapped by latch name.
    void appendInvariant(const ObligationJob& source, std::vector<PdrCube>& seeds) const;
    /// Maps a near-miss artifact's named lemmas onto the job's AIG and
    /// appends them to its PDR seed candidates (bounded, re-validated
    /// downstream).
    void seedFromNearMiss(ObligationJob& job) const;
    /// Pre-stage cache protocol: computes the job's key for `stage` into
    /// job.fp/job.structKey (so the stage's store records under the same
    /// key), applies an exact hit, and seeds PDR from a near-miss when
    /// `allowSeeding`. True = served from cache.
    bool tryServeFromCache(const ProofContext& ctx, ObligationJob& job, cache::Stage stage,
                           bool allowSeeding) const;
    /// Records the job's verdict under the key its cache lookup computed
    /// (no-op without a cache, or for a degraded verdict).
    void storeJob(const ProofContext& ctx, const ObligationJob& job) const;
    /// The PDR stage over one barrier's still-open jobs (`open`, in
    /// declaration order; a single job per lemma-chain link in phase B):
    /// one runPdr per job in parallel. When the run has a deadline, each
    /// job runs under its own job deadline, and a job it leaves Unknown
    /// takes the cause it latched as its UnknownReason.
    void runPdrStage(const ProofContext& baseCtx, const std::vector<ObligationJob*>& open);

    /// True when the job's verdict may enter the proof cache. Deadline- or
    /// fault-degraded Unknowns must not, and neither may any Unknown once
    /// the run's deadline latched a cause: a cached "Unknown" would poison
    /// warm reruns that have the time to decide the obligation.
    [[nodiscard]] static bool cacheStorable(const ProofContext& ctx, const ObligationJob& job);

    const ir::Design& design_;
    EngineOptions opts_;
    BitBlast bb_;
    std::vector<AigLit> constraints_;
    std::vector<AigLit> fairness_;
    std::unique_ptr<LivenessTransform> live_;
    std::unique_ptr<cache::ProofCache> cache_;
    uint64_t structSalt_ = 0; ///< Design-identity salt for near-miss keys.
    std::unordered_map<std::string, uint32_t> baseLatchNames_;
    std::unordered_map<std::string, uint32_t> liveLatchNames_;
    SharedStats shared_;
    EngineStats stats_;
};

} // namespace autosva::formal
