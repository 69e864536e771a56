// Bounded model checking strategy: unrolls from the reset state and asks
// for the bad net frame by frame, so the first Sat answer is a shortest
// counterexample (or cover witness). Also hosts the word-level trace
// extraction and the fresh-solver search from reset (bmcFromReset) that
// the PDR strategy replays its counterexamples with.
//
// Two execution paths share the same semantics:
//  - batched (runBmcBatch, the scheduler's path): one long-lived solver per
//    worker discharges the worker's whole job batch in frame lockstep — for
//    k = 0,1,2,... every still-open job is queried at frame k before any
//    job advances to k+1. The lockstep order is what lets everything stay
//    level-0 *units*: a frame's environment constraints are added once
//    when the sweep reaches it (no job ever queries below the constrained
//    frontier), and an Unsat answer for job j at frame k adds the unit "no
//    trace of length k reaches bad_j" — a fact implied by the active
//    constraints, so it can only prune, never flip, any other job's query.
//    Unit facts propagate once and simplify all later encoding, which
//    activation-literal guarding cannot do (guarded constraints
//    re-propagate per solve and leak guard literals into every learnt
//    clause);
//  - fresh (runBmcFresh, a span around bmcFromReset): a throwaway
//    SatSolver/Unroller per obligation. It is the deterministic lasso
//    replay below and the reference the batched sweep is tested against.
// Sat/Unsat answers are semantic, so both paths conclude each job at the
// same depth for any worker count or batch mix. Model values are not: the
// canonical report sees the model only through a liveness lasso's loop
// start, so witnesses found on the live (l2s) AIG re-derive their trace on
// a fresh replay; safety and cover witnesses read the batch model
// directly — any model is a true witness.
#include "formal/sat.hpp"
#include "formal/strategy.hpp"
#include "formal/unroll.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace autosva::formal {

CexTrace extractCexTrace(const ProofContext& ctx, Unroller& un, SatSolver& solver,
                         int frames) {
    CexTrace trace;
    // Initial register values.
    for (const auto& [node, vars] : ctx.bb.latchVars) {
        uint64_t value = 0;
        for (size_t i = 0; i < vars.size(); ++i) {
            SatLit l = un.peek(0, aigMkLit(vars[i]));
            if (l != Unroller::kUnset && modelBit(solver, l)) value |= uint64_t{1} << i;
        }
        trace.initialRegs[ctx.design.node(node).name] = value;
    }
    // Inputs per frame.
    for (int f = 0; f <= frames; ++f) {
        std::unordered_map<std::string, uint64_t> frame;
        for (const auto& [node, vars] : ctx.bb.inputVars) {
            uint64_t value = 0;
            for (size_t i = 0; i < vars.size(); ++i) {
                SatLit l = un.peek(f, aigMkLit(vars[i]));
                if (l != Unroller::kUnset && modelBit(solver, l)) value |= uint64_t{1} << i;
            }
            frame[ctx.design.node(node).name] = value;
        }
        trace.inputs.push_back(std::move(frame));
    }
    // Liveness lasso: locate the save point.
    if (ctx.saveOracle != kAigFalse) {
        for (int f = 0; f <= frames; ++f) {
            SatLit l = un.peek(f, ctx.saveOracle);
            if (l == Unroller::kUnset) continue;
            if (modelBit(solver, l)) {
                trace.loopStart = f;
                break;
            }
        }
    }
    return trace;
}

// Deterministic as a replay: the first Sat depth is a semantic fact, so
// replaying up to it reproduces this search (and therefore its trace) byte
// for byte.
uint64_t bmcFromReset(const ProofContext& ctx, ObligationJob& job, int maxDepth) {
    uint64_t queries = 0;
    SatSolver solver;
    solver.bindDeadline(job.deadline);
    Unroller un(ctx.aig, solver, Unroller::Init::Reset);
    int lastConstrained = -1;
    for (int k = 0; k <= maxDepth; ++k) {
        constrainFramesTo(un, solver, ctx.constraints, k, lastConstrained);
        util::Stopwatch sw;
        SatLit bad = un.lit(k, job.bad);
        SatResult r = solver.solve({bad});
        ++queries;
        if (ctx.stats) ctx.stats->satCalls.fetch_add(1, std::memory_order_relaxed);
        job.result.seconds += sw.seconds();
        if (r == SatResult::Sat) {
            job.result.status = job.coverMode ? Status::Covered : Status::Failed;
            job.result.depth = k;
            job.result.trace = extractCexTrace(ctx, un, solver, k);
            break;
        }
        if (r == SatResult::Unsat) {
            solver.addUnit(satNeg(bad)); // Strengthen deeper frames.
        } else {
            // Deadline hit: leave Unknown, stop refining.
            job.result.depth = k;
            break;
        }
    }
    if (ctx.stats) {
        ctx.stats->conflicts.fetch_add(solver.conflicts(), std::memory_order_relaxed);
        ctx.stats->propagations.fetch_add(solver.propagations(), std::memory_order_relaxed);
        ctx.stats->addEncoder(solver, un);
    }
    return queries;
}

void runBmcFresh(const ProofContext& ctx, ObligationJob& job, int maxDepth) {
    obs::Span span(ctx.opts.trace, "strategy", "bmc", static_cast<int64_t>(job.index));
    span.arg("queries", bmcFromReset(ctx, job, maxDepth));
}

void runBmcBatch(const ProofContext& ctx, const std::vector<ObligationJob*>& jobs) {
    if (jobs.empty()) return;
    obs::Recorder* rec = ctx.opts.trace;
    obs::Span span(rec, "strategy", "bmc-batch");
    span.arg("jobs", jobs.size());
    // Per-job attribution shares of this sweep (queries and solve time),
    // emitted as Counter events at the end — the batch runs on one shared
    // solver, so there is no per-job span to hang them on.
    std::unordered_map<const ObligationJob*, std::pair<uint64_t, uint64_t>> attribution;
    SatSolver solver;
    // The sweep solver serves every job in the batch, so it answers to the
    // run's deadline only (per-job wall attribution inside a lockstep sweep
    // would overcharge idle batch-mates — see robust/deadline.hpp).
    solver.bindDeadline(ctx.runDeadline);
    Unroller un(ctx.aig, solver, Unroller::Init::Reset);
    int lastConstrained = -1;
    std::vector<ObligationJob*> open(jobs.begin(), jobs.end());
    for (int k = 0; k <= ctx.opts.bmcDepth && !open.empty(); ++k) {
        constrainFramesTo(un, solver, ctx.constraints, k, lastConstrained);
        // Fresh search heuristics at each frame boundary: within a frame
        // the batch hops between unrelated bad cones, and activity/phase
        // state tuned to one job's cone measurably degrades the next's
        // search (the learnt clauses and the shared encoding stay — they
        // are what the batch exists to reuse).
        solver.resetSearchState();
        for (size_t i = 0; i < open.size();) {
            ObligationJob& job = *open[i];
            util::Stopwatch sw;
            SatLit bad = un.lit(k, job.bad);
            SatResult r = solver.solve({bad});
            if (ctx.stats) ctx.stats->satCalls.fetch_add(1, std::memory_order_relaxed);
            const double solveSeconds = sw.seconds();
            job.result.seconds += solveSeconds;
            if (rec) {
                auto& share = attribution[&job];
                ++share.first;
                share.second += static_cast<uint64_t>(solveSeconds * 1e9);
            }
            if (r == SatResult::Sat) {
                if (ctx.saveOracle != kAigFalse) {
                    // Lasso witness: the loop start is model-dependent and
                    // canonical; replay on a fresh solver for determinism.
                    // The replay re-times frames 0..k, so restart the
                    // job's clock instead of double-counting them.
                    job.result.seconds = 0.0;
                    runBmcFresh(ctx, job, k);
                } else {
                    job.result.status = job.coverMode ? Status::Covered : Status::Failed;
                    job.result.depth = k;
                    job.result.trace = extractCexTrace(ctx, un, solver, k);
                }
                open.erase(open.begin() + static_cast<long>(i));
            } else if (r == SatResult::Unsat) {
                // Implied by the active constraints, so a plain unit: every
                // later query — this job's or a batch-mate's with an
                // overlapping cone — may reuse it, none can be flipped by it.
                solver.addUnit(satNeg(bad));
                ++i;
            } else {
                job.result.depth = k; // Run deadline hit: leave Unknown.
                open.erase(open.begin() + static_cast<long>(i));
            }
        }
    }
    if (ctx.stats) {
        ctx.stats->conflicts.fetch_add(solver.conflicts(), std::memory_order_relaxed);
        ctx.stats->propagations.fetch_add(solver.propagations(), std::memory_order_relaxed);
        ctx.stats->addEncoder(solver, un);
        if (jobs.size() > 1)
            ctx.stats->solverReuses.fetch_add(jobs.size() - 1, std::memory_order_relaxed);
    }
    if (rec) {
        // Declaration iteration order over `jobs` (not the map) keeps the
        // emission order deterministic.
        for (const ObligationJob* job : jobs) {
            auto it = attribution.find(job);
            if (it == attribution.end()) continue;
            rec->counter("strategy", "bmc", static_cast<int64_t>(job->index),
                         {{"queries", it->second.first}, {"nanos", it->second.second}});
        }
    }
}

} // namespace autosva::formal
