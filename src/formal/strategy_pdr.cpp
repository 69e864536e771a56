// PDR/IC3 strategy: unbounded reachability for everything the BMC probe
// leaves open. runPdr is the one path of every PDR search: one
// pdrCheck on `job.pdrBad` (which liveness lemma chaining may have
// strengthened relative to `job.bad`) at opts.pdrMaxQueries, folded into
// the stats and the trace, then mapped onto the job. When PDR reports a
// reachable bad state, a shortest-first BMC from reset (bmcFromReset)
// replays it to extract a word-level trace of the original `bad`.
#include "formal/pdr.hpp"
#include "formal/strategy.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace autosva::formal {

void runPdr(const ProofContext& ctx, ObligationJob& job) {
    obs::Recorder* rec = ctx.opts.trace;
    const auto index = static_cast<int64_t>(job.index);
    util::Stopwatch sw;
    PdrOptions pdrOpts;
    pdrOpts.maxQueries = ctx.opts.pdrMaxQueries;
    pdrOpts.perturbSeed = ctx.opts.perturbSeed;
    pdrOpts.deadline = job.deadline;
    if (!job.pdrSeeds.empty()) pdrOpts.seedCubes = &job.pdrSeeds;
    const AigLit bad = job.pdrBad != kAigFalse ? job.pdrBad : job.bad;
    PdrResult pr;
    {
        obs::Span span(rec, "strategy", "pdr", index);
        pr = pdrCheck(ctx.aig, bad, ctx.constraints, pdrOpts);
        if (ctx.stats) {
            ctx.stats->satCalls.fetch_add(pr.queries, std::memory_order_relaxed);
            ctx.stats->addPdr(pr.stats);
        }
        // The per-obligation attribution of the fold above: every number
        // SharedStats::addPdr folds into EngineStats rides on this span's
        // End event, so `autosva profile` can say which property the
        // frames/cubes/seeds belonged to.
        span.arg("queries", pr.queries);
        span.arg("frames", pr.stats.framesOpened);
        span.arg("cubes", pr.stats.cubesBlocked);
        span.arg("drops", pr.stats.genDropAttempts);
        span.arg("seeds", pr.stats.seedCubesAdmitted);
        span.arg("lifted", pr.stats.liftedLiterals);
        span.arg("conflicts", pr.stats.conflicts);
        span.arg("propagations", pr.stats.propagations);
        span.arg("q_bad", pr.stats.badQueries);
        span.arg("q_block", pr.stats.blockQueries);
        span.arg("q_validate", pr.stats.validateQueries);
        span.arg("q_drop", pr.stats.dropQueries);
        span.arg("q_push", pr.stats.pushQueries);
        span.arg("q_side", pr.stats.sideSolves);
    }
    job.result.seconds += sw.seconds();

    switch (pr.kind) {
    case PdrResult::Kind::Proven:
        job.result.status = job.coverMode ? Status::Unreachable : Status::Proven;
        job.result.depth = pr.depth;
        job.invariant = std::move(pr.invariant);
        break;
    case PdrResult::Kind::Cex: {
        // Deep counterexample (beyond the BMC probe): replay it on a fresh
        // solver, so the trace does not depend on any shared solver's job
        // history; searching upward from k = 0 makes it the shortest one,
        // whatever depth bound PDR reported. The replay span sits beside
        // the search's span, not inside it, so its time is counted once;
        // its solves are PDR's cost and are attributed to the `pdr` stage.
        uint64_t replayed = 0;
        {
            obs::Span span(rec, "strategy", "cex-replay", index);
            replayed = bmcFromReset(ctx, job, pr.depth + 2);
        }
        if (rec) rec->counter("strategy", "pdr", index, {{"queries", replayed}});
        // A replay that finds nothing (or hits a deadline) stays Unknown.
        if (job.result.status == Status::Unknown) job.result.depth = pr.depth;
        break;
    }
    case PdrResult::Kind::Unknown:
        job.result.depth = pr.depth;
        break;
    }
}

} // namespace autosva::formal
