#include "formal/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "cache/fingerprint.hpp"
#include "cache/store.hpp"
#include "obs/trace.hpp"
#include "robust/faultinject.hpp"
#include "util/stopwatch.hpp"

namespace autosva::formal {

namespace {

/// Peak RSS of the process in KiB (0 when the platform has no getrusage).
/// macOS reports ru_maxrss in bytes; Linux in kilobytes.
uint64_t peakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
    return static_cast<uint64_t>(ru.ru_maxrss) / 1024;
#else
    return static_cast<uint64_t>(ru.ru_maxrss);
#endif
#else
    return 0;
#endif
}

/// Clamp an EngineOptions::jobs value to the usable worker count for
/// `numTasks` tasks. parallelFor applies the same clamp, so callers that
/// partition work per worker (BMC batches) agree with it on the count.
[[nodiscard]] int workerCount(int jobs, size_t numTasks) {
    return std::min(std::max(jobs, 1), static_cast<int>(numTasks));
}

/// Runs body(worker, 0..numTasks-1) on `workers` threads (inline when <= 1,
/// which reproduces strict sequential declaration order). Each thread
/// claims the next unclaimed task index from one shared counter; SAT
/// solving dominates per-task cost by orders of magnitude, so nothing
/// finer-grained pays. Blocks until every task finished; the first
/// exception thrown by a task is rethrown here. The worker index passed to
/// `body` identifies the executing thread (0..workers-1), so per-worker
/// state needs no locking.
void parallelFor(int workers, size_t numTasks,
                 const std::function<void(int, size_t)>& body) {
    if (numTasks == 0) return;
    workers = workerCount(workers, numTasks);
    if (workers <= 1) {
        for (size_t t = 0; t < numTasks; ++t) body(0, t);
        return;
    }
    std::atomic<size_t> nextTask{0};
    std::mutex errMutex;
    std::exception_ptr firstError;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            for (size_t t = nextTask++; t < numTasks; t = nextTask++) {
                try {
                    body(w, t);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(errMutex);
                    if (!firstError) firstError = std::current_exception();
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    if (firstError) std::rethrow_exception(firstError);
}

void finalizeDepth(ObligationJob& job, const EngineOptions& opts) {
    if (job.result.status == Status::Unknown && job.result.depth < 0)
        job.result.depth = opts.bmcDepth;
}

/// Perturbation-fuzz hook: the processing order of `jobs` — unchanged, or
/// a deterministically seeded shuffle when EngineOptions::perturbSeed is
/// set. Everything downstream is submission-order-insensitive (batched BMC
/// answers are semantic, PDR canonicalizes its cubes, run() returns
/// declaration order), so any seed must produce the byte-identical
/// canonical report — the fuzz test asserts it. `salt` decouples the
/// permutations of different stages.
[[nodiscard]] std::vector<ObligationJob*> perturbedOrder(std::vector<ObligationJob*> jobs,
                                                         uint64_t seed, uint64_t salt) {
    if (seed != 0 && jobs.size() >= 2) {
        std::mt19937_64 rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
        std::shuffle(jobs.begin(), jobs.end(), rng);
    }
    return jobs;
}

/// Transitive latch support of `root`: every latch var whose state can
/// influence the literal through combinational logic and next-state
/// functions (the same cone-of-influence notion the cache fingerprints
/// use). Sorted, so chain-seed projection can binary-search it.
std::vector<uint32_t> latchSupport(const Aig& aig, AigLit root) {
    std::vector<uint32_t> support;
    std::vector<char> visited(aig.numVars(), 0);
    std::vector<uint32_t> stack{aigVar(root)};
    while (!stack.empty()) {
        uint32_t v = stack.back();
        stack.pop_back();
        if (visited[v]) continue;
        visited[v] = 1;
        switch (aig.kind(v)) {
        case Aig::VarKind::And:
            stack.push_back(aigVar(aig.fanin0(v)));
            stack.push_back(aigVar(aig.fanin1(v)));
            break;
        case Aig::VarKind::Latch:
            support.push_back(v);
            stack.push_back(aigVar(aig.latchNext(v)));
            break;
        case Aig::VarKind::Const:
        case Aig::VarKind::Input:
            break;
        }
    }
    std::sort(support.begin(), support.end());
    return support;
}

// ---------------------------------------------------------------------------
// Proof-cache glue
// ---------------------------------------------------------------------------

/// Bounds on what one artifact may carry into / out of the store; silent
/// truncation of lemmas is fine because they are only reuse candidates.
constexpr size_t kMaxStoredLemmas = 4096;
constexpr size_t kMaxSeedCubes = 2048;

/// Content key of one obligation at one pipeline stage: the union cone of
/// bad, pdrBad, the l2s save oracle, and every frame constraint (an
/// unsatisfiable constraint set elsewhere in the design can flip any
/// verdict, so constraints are always part of the key).
cache::Fingerprint jobFingerprint(const ProofContext& ctx, const ObligationJob& job,
                                  cache::Stage stage) {
    std::vector<AigLit> roots{job.bad, job.pdrBad, ctx.saveOracle};
    roots.insert(roots.end(), ctx.constraints.begin(), ctx.constraints.end());
    uint64_t digest = cache::optionsDigest(ctx.opts, stage, job.coverMode, job.ob->kind);
    return cache::fingerprintCone(ctx.aig, roots, digest);
}

/// True when a cached verdict is shape-plausible for this job; the cache
/// counts a reject as a miss, which runs the full proof, never a wrong
/// report.
bool adoptable(const cache::ProofArtifact& art, const ObligationJob& job) {
    switch (art.status) {
    case Status::Failed:
        if (job.coverMode || art.trace.inputs.empty()) return false;
        break;
    case Status::Covered:
        if (!job.coverMode || art.trace.inputs.empty()) return false;
        break;
    case Status::Proven:
        if (job.coverMode) return false;
        break;
    case Status::Unreachable:
        if (!job.coverMode) return false;
        break;
    case Status::Unknown:
        break;
    case Status::Skipped:
        return false;
    }
    return true;
}

cache::ProofArtifact makeArtifact(uint64_t structKey, const ObligationJob& job,
                                  const Aig& aig) {
    cache::ProofArtifact art;
    art.structKey = structKey;
    art.status = job.result.status;
    art.depth = job.result.depth;
    if (job.result.status == Status::Failed || job.result.status == Status::Covered)
        art.trace = job.result.trace;
    for (const PdrCube& cube : job.invariant) {
        if (art.lemmas.size() >= kMaxStoredLemmas) break;
        cache::NamedCube named;
        named.lits.reserve(cube.size());
        bool portable = true;
        for (auto [var, val] : cube) {
            const std::string& name = aig.varName(var);
            if (name.empty()) {
                portable = false;
                break;
            }
            named.lits.emplace_back(name, val);
        }
        if (portable) art.lemmas.push_back(std::move(named));
    }
    return art;
}

/// Re-targets named lemma cubes onto the current AIG. Cubes naming latches
/// that no longer exist are dropped; if more than half are lost, the design
/// drifted beyond the bounded delta where reuse pays and nothing is seeded.
std::vector<PdrCube> mapLemmas(const std::vector<cache::NamedCube>& lemmas,
                               const std::unordered_map<std::string, uint32_t>& latchByName) {
    std::vector<PdrCube> cubes;
    cubes.reserve(std::min(lemmas.size(), kMaxSeedCubes));
    for (const cache::NamedCube& named : lemmas) {
        if (cubes.size() >= kMaxSeedCubes) break;
        if (named.lits.empty()) continue;
        PdrCube cube;
        cube.reserve(named.lits.size());
        bool mapped = true;
        for (const auto& [name, val] : named.lits) {
            auto it = latchByName.find(name);
            if (it == latchByName.end()) {
                mapped = false;
                break;
            }
            cube.emplace_back(it->second, val);
        }
        if (mapped) cubes.push_back(std::move(cube));
    }
    if (cubes.size() * 2 < lemmas.size()) cubes.clear();
    return cubes;
}

} // namespace

// ---------------------------------------------------------------------------
// ObligationScheduler
// ---------------------------------------------------------------------------

ObligationScheduler::ObligationScheduler(const ir::Design& design, EngineOptions opts)
    : design_(design), opts_(opts), bb_(bitblast(design, opts_.aigRewrite)) {
    for (const auto& ob : design.obligations()) {
        if (ob.xprop) continue;
        if (ob.kind == ir::Obligation::Kind::Constraint)
            constraints_.push_back(bb_.lit(ob.net));
        else if (ob.kind == ir::Obligation::Kind::Fairness)
            fairness_.push_back(bb_.lit(ob.net));
    }
    if (!opts_.cacheDir.empty()) {
        cache_ = std::make_unique<cache::ProofCache>(opts_.cacheDir);
        structSalt_ = cache::designSalt(design);
        baseLatchNames_ = cache::latchNameMap(bb_.aig);
        if (opts_.trace) cache_->attachRecorder(opts_.trace);
    }
}

ObligationScheduler::~ObligationScheduler() = default;

bool ObligationScheduler::cacheStorable(const ProofContext& ctx, const ObligationJob& job) {
    if (job.result.unknownReason != UnknownReason::None) return false;
    if (job.result.status == Status::Unknown) {
        // An expired run deadline leaves a BMC sweep's jobs Unknown without
        // a reason: no job deadline covers a sweep, and the Frontier store
        // comes before the chain link that would tag the job.
        if (ctx.runDeadline && ctx.runDeadline->cause() != UnknownReason::None) return false;
        // An injected solver interrupt degrades a job to Unknown without a
        // deadline cause; keep those out of the cache too.
        robust::FaultPlan* plan = robust::FaultPlan::active();
        if (plan != nullptr && plan->fired(robust::FaultSite::SolverInterrupt)) return false;
    }
    return true;
}

void ObligationScheduler::appendInvariant(const ObligationJob& source,
                                          std::vector<PdrCube>& seeds) const {
    // A job PDR proved this run holds its invariant. One an exact hit
    // served (source.fp is the hit's key) holds none: the invariant the
    // hit stored is decoded from the cache and mapped only now.
    if (!source.result.cached || !source.invariant.empty()) {
        seeds.insert(seeds.end(), source.invariant.begin(), source.invariant.end());
        return;
    }
    std::vector<PdrCube> mapped = mapLemmas(cache_->storedLemmas(source.fp),
                                            source.onLiveAig ? liveLatchNames_ : baseLatchNames_);
    seeds.insert(seeds.end(), std::make_move_iterator(mapped.begin()),
                 std::make_move_iterator(mapped.end()));
}

void ObligationScheduler::seedFromNearMiss(ObligationJob& job) const {
    auto near = cache_->lookupNear(job.structKey);
    if (!near || near->lemmas.empty()) return;
    std::vector<PdrCube> seeds =
        mapLemmas(near->lemmas, job.onLiveAig ? liveLatchNames_ : baseLatchNames_);
    if (seeds.empty()) return;
    cache_->noteSeeded(seeds.size());
    if (opts_.trace)
        opts_.trace->instant("cache", "near-miss-seed", static_cast<int64_t>(job.index),
                             {{"seeds", seeds.size()}});
    // Appended: a chain link already holds its chain seeds. Admission
    // sorts and deduplicates the union.
    job.pdrSeeds.insert(job.pdrSeeds.end(), std::make_move_iterator(seeds.begin()),
                        std::make_move_iterator(seeds.end()));
}

bool ObligationScheduler::tryServeFromCache(const ProofContext& ctx, ObligationJob& job,
                                            cache::Stage stage, bool allowSeeding) const {
    job.fp = jobFingerprint(ctx, job, stage);
    job.structKey = cache::structKey(job.ob->name, job.ob->kind, stage, structSalt_);
    auto art = cache_->lookup(
        job.fp, [&job](const cache::ProofArtifact& a) { return adoptable(a, job); });
    if (art) {
        job.result.status = art->status;
        job.result.depth = art->depth;
        job.result.trace = std::move(art->trace);
        job.result.cached = true;
        if (opts_.trace)
            opts_.trace->instant("cache", "hit", static_cast<int64_t>(job.index),
                                 {{"status", static_cast<uint64_t>(job.result.status)}});
        return true;
    }
    if (opts_.trace) opts_.trace->instant("cache", "miss", static_cast<int64_t>(job.index));
    if (allowSeeding) seedFromNearMiss(job);
    return false;
}

void ObligationScheduler::storeJob(const ProofContext& ctx, const ObligationJob& job) const {
    if (cache_ && cacheStorable(ctx, job))
        cache_->store(job.fp, makeArtifact(job.structKey, job, ctx.aig));
}

void ObligationScheduler::runPhaseBatched(const ProofContext& baseCtx,
                                          const std::vector<ObligationJob*>& phaseJobs,
                                          cache::Stage stage) {
    const bool fullPipeline = stage == cache::Stage::FullPipeline;

    // Cache pass, in declaration order (lookups hit the open-time snapshot,
    // so order cannot leak into results — this is just the cheap part).
    std::vector<ObligationJob*> toProve;
    toProve.reserve(phaseJobs.size());
    for (ObligationJob* job : phaseJobs)
        if (!cache_ || !tryServeFromCache(baseCtx, *job, stage, /*allowSeeding=*/fullPipeline))
            toProve.push_back(job);
    if (toProve.empty()) return;

    // Fuzz hook: permute the submission order, which changes batch
    // composition; the determinism contract says that cannot move a
    // verdict.
    toProve = perturbedOrder(std::move(toProve), opts_.perturbSeed, fullPipeline ? 1 : 2);

    // Frame-lockstep batched BMC: a static round-robin partition, one
    // batch per task, keeps each batch's composition deterministic for a
    // given worker count; everything the batch mix could influence — witness
    // models — never reaches the canonical report (see strategy_bmc.cpp).
    const int workers = workerCount(opts_.jobs, toProve.size());
    std::vector<std::vector<ObligationJob*>> batches(static_cast<size_t>(workers));
    for (size_t i = 0; i < toProve.size(); ++i)
        batches[i % static_cast<size_t>(workers)].push_back(toProve[i]);
    parallelFor(workers, batches.size(), [&](int w, size_t b) {
        obs::LaneScope lane(w);
        runBmcBatch(baseCtx, batches[b]);
    });
}

void ObligationScheduler::runPdrStage(const ProofContext& baseCtx,
                                      const std::vector<ObligationJob*>& open) {
    const std::vector<ObligationJob*> order = perturbedOrder(open, opts_.perturbSeed, /*salt=*/3);
    parallelFor(opts_.jobs, order.size(), [&](int w, size_t t) {
        obs::LaneScope lane(w);
        ObligationJob& job = *order[t];
        if (baseCtx.runDeadline == nullptr) {
            runPdr(baseCtx, job);
            return;
        }
        // The job's --obligation-timeout clock starts now.
        const robust::Deadline deadline(opts_.obligationTimeoutSeconds, UnknownReason::Timeout,
                                        nullptr, baseCtx.runDeadline);
        job.deadline = &deadline;
        runPdr(baseCtx, job);
        job.deadline = nullptr;
        const UnknownReason cause = deadline.cause();
        if (job.result.status != Status::Unknown || cause == UnknownReason::None) return;
        job.result.unknownReason = cause;
        if (opts_.trace)
            opts_.trace->instant("robust", "deadline", static_cast<int64_t>(job.index),
                                 {{"cause", static_cast<uint64_t>(cause)}});
    });
}

std::vector<PropertyResult> ObligationScheduler::run() {
    util::Stopwatch total;
    // The run's deadline; its --time-budget clock starts now. Built for a
    // pure external-stop configuration too, so SIGINT/SIGTERM drain
    // through the same orderly cancellation path as a budget expiry.
    // Without any of the three, solvers keep a null deadline.
    std::optional<robust::Deadline> deadline;
    if (opts_.timeBudgetSeconds > 0.0 || opts_.obligationTimeoutSeconds > 0.0 ||
        opts_.stopFlag != nullptr)
        deadline.emplace(opts_.timeBudgetSeconds, UnknownReason::RunBudget, opts_.stopFlag);
    const robust::Deadline* runDeadline = deadline ? &*deadline : nullptr;
    const auto& obligations = design_.obligations();
    obs::Recorder* rec = opts_.trace;
    if (rec) {
        std::vector<std::string> names;
        names.reserve(obligations.size());
        for (const auto& ob : obligations) names.push_back(ob.name);
        rec->setObligationNames(std::move(names));
    }
    std::vector<ObligationJob> jobs(obligations.size());

    bool needLive = false;
    for (size_t i = 0; i < obligations.size(); ++i) {
        const auto& ob = obligations[i];
        ObligationJob& job = jobs[i];
        job.ob = &ob;
        job.index = i;
        job.result.name = ob.name;
        job.result.kind = ob.kind;
        job.result.loc = ob.loc;
        switch (ob.kind) {
        case ir::Obligation::Kind::SafetyBad:
            if (ob.xprop) {
                job.result.status = Status::Skipped;
            } else {
                job.bad = bb_.lit(ob.net);
                job.pdrBad = job.bad;
            }
            break;
        case ir::Obligation::Kind::Justice:
            if (opts_.useLivenessToSafety) {
                needLive = true;
                job.onLiveAig = true;
            } else {
                job.result.status = Status::Skipped;
            }
            break;
        case ir::Obligation::Kind::Cover:
            if (opts_.checkCovers) {
                job.bad = bb_.lit(ob.net);
                job.pdrBad = job.bad;
                job.coverMode = true;
            } else {
                job.result.status = Status::Skipped;
            }
            break;
        case ir::Obligation::Kind::Constraint:
        case ir::Obligation::Kind::Fairness:
            job.result.status = Status::Skipped; // Used as environment, not checked.
            break;
        }
    }

    if (needLive) {
        live_ = std::make_unique<LivenessTransform>(design_, bb_, fairness_);
        if (cache_) liveLatchNames_ = cache::latchNameMap(live_->aig());
        for (auto& job : jobs) {
            if (job.onLiveAig && job.result.status == Status::Unknown) {
                job.bad = live_->bad(job.ob);
                job.pdrBad = job.bad;
            }
        }
    }

    std::vector<ObligationJob*> safetyJobs, liveJobs, phaseA;
    for (auto& job : jobs) {
        if (job.result.status != Status::Unknown) continue;
        switch (job.ob->kind) {
        case ir::Obligation::Kind::SafetyBad: safetyJobs.push_back(&job); phaseA.push_back(&job); break;
        case ir::Obligation::Kind::Justice: liveJobs.push_back(&job); break;
        case ir::Obligation::Kind::Cover: phaseA.push_back(&job); break;
        default: break;
        }
    }

    // ---- Phase A: safety assertions and covers, in parallel; jobs are
    // mutually independent on the immutable base AIG. Cache pass, the
    // batched BMC probe, then the PDR stage over the survivors, then one
    // store per job — so the cache sees the PDR verdicts.
    util::Stopwatch phaseATimer;
    obs::Span phaseASpan(rec, "phase", "phase-a");
    phaseASpan.arg("jobs", phaseA.size());
    ProofContext baseCtx{design_, bb_, bb_.aig, constraints_, opts_, kAigFalse,
                         &shared_, runDeadline};
    runPhaseBatched(baseCtx, phaseA, cache::Stage::FullPipeline);
    std::vector<ObligationJob*> openA;
    for (ObligationJob* job : phaseA)
        if (job->result.status == Status::Unknown && !job->result.cached) openA.push_back(job);
    runPdrStage(baseCtx, openA);
    for (ObligationJob* job : phaseA)
        if (!job->result.cached) storeJob(baseCtx, *job);
    phaseASpan.end();
    const double phaseASeconds = phaseA.empty() ? 0.0 : phaseATimer.seconds();

    // ---- Phase B: liveness. Proven safety assertions are invariants of the
    // reachable states; feed them to the liveness jobs as constraints. This
    // prunes the unreachable lasso states that otherwise dominate the
    // liveness proofs (the same lemma reuse commercial engines apply). The
    // barrier after phase A makes the constraint set — hence the results —
    // independent of worker timing.
    util::Stopwatch phaseB;
    obs::Span phaseBSpan(rec, "phase", "phase-b");
    phaseBSpan.arg("jobs", liveJobs.size());
    if (!liveJobs.empty()) {
        std::vector<AigLit> liveConstraints = constraints_;
        for (const ObligationJob* job : safetyJobs) {
            if (job->result.status == Status::Proven && !job->onLiveAig)
                liveConstraints.push_back(aigNot(job->bad));
        }
        ProofContext liveCtx{design_, bb_, live_->aig(), liveConstraints, opts_,
                             live_->saveOracle(), &shared_, runDeadline};
        // Phase B gets fresh BMC batches: the live AIG and the
        // strengthened constraint set invalidate phase A's encodings, and
        // the lemma chain below mutates the live AIG — shared unrollers
        // must not outlive the frontier pass.
        {
            obs::Span frontierSpan(rec, "phase", "frontier");
            frontierSpan.arg("jobs", liveJobs.size());
            runPhaseBatched(liveCtx, liveJobs, cache::Stage::Frontier);
            for (ObligationJob* job : liveJobs)
                if (!job->result.cached) storeJob(liveCtx, *job);
        }

        // PDR with lemma chaining: once a justice obligation is proven,
        // every legal lasso must contain it, so its in-loop "seen" tracker
        // becomes a fairness fact for every later obligation. The chain
        // runs single-threaded in declaration order — each link is a
        // one-job PDR stage followed by the tracker fold — which keeps
        // the reasoning acyclic and sound and the reports byte-identical
        // for any worker count. The live AIG is only mutated between
        // links, never while a PDR search reads it.
        AigLit provenSeen = kAigTrue;
        // Each proven chain obligation's inductive invariant seeds every
        // later chain job (same live AIG, same constraint set, so the cubes
        // are model facts independent of the per-job bad literal).
        // Admission re-validates them with a greatest-fixpoint consecution
        // filter outside the search's query budget, so a seed can prune the
        // search but never skew the verdict or eat the budget. Primed with
        // phase A's safety PDR invariants: the live AIG shares variable
        // numbering with the base, so reachability facts about the shared
        // state (e.g. request tracking) transfer verbatim. A source an
        // exact hit served contributes the invariant stored with the hit,
        // as the proof it replays did. Sources join chainSeeds only once a
        // link misses, so a fully warm run decodes and maps no lemma.
        std::vector<const ObligationJob*> seedSources;
        for (const ObligationJob* job : safetyJobs)
            if (job->result.status == Status::Proven) seedSources.push_back(job);
        std::vector<PdrCube> chainSeeds;
        size_t seededSources = 0; // seedSources[0, seededSources) are in chainSeeds.
        for (size_t link = 0; link < liveJobs.size(); ++link) {
            ObligationJob& job = *liveJobs[link];
            // Named "wave" for the trace consumers (the profiler's phase
            // timeline, perfbench's scheduler.wave_s).
            obs::Span linkSpan(rec, "phase", "wave");
            linkSpan.arg("index", link);
            if (job.result.status != Status::Unknown) continue; // Frontier-decided.
            job.pdrBad = provenSeen != kAigTrue
                             ? live_->mutableAig().mkAnd(job.bad, provenSeen)
                             : job.bad;
            // The cache pass, else the PDR stage and one store — all before
            // the fold below.
            if (!cache_ || !tryServeFromCache(liveCtx, job, cache::Stage::ChainPdr,
                                              /*allowSeeding=*/false)) {
                // A Frontier hit may have served a stored Unknown; this
                // link is searched, not served.
                job.result.cached = false;
                for (; seededSources < seedSources.size(); ++seededSources)
                    appendInvariant(*seedSources[seededSources], chainSeeds);
                if (!chainSeeds.empty()) {
                    // Cone projection: a seed transfers restricted to the
                    // latches in the job's own bad-cone (its trackers plus
                    // the shared base state, e.g. the page-table walker).
                    // Cubes about a *different* obligation's bookkeeping
                    // are not just useless — blocking them measurably
                    // derails the job's generalization trajectory — but
                    // their in-cone projection often carries a shared-state
                    // fact. Projection strengthens the claim (fewer
                    // literals block more states), which is exactly what
                    // the admission fixpoint exists to arbitrate.
                    const std::vector<uint32_t> cone = latchSupport(liveCtx.aig, job.bad);
                    for (const PdrCube& cube : chainSeeds) {
                        PdrCube proj;
                        proj.reserve(cube.size());
                        for (const auto& lit : cube)
                            if (std::binary_search(cone.begin(), cone.end(), lit.first))
                                proj.push_back(lit);
                        if (!proj.empty()) job.pdrSeeds.push_back(std::move(proj));
                    }
                }
                if (cache_) seedFromNearMiss(job);
                runPdrStage(liveCtx, {&job});
                storeJob(liveCtx, job);
            }
            if (job.result.status == Status::Proven) {
                provenSeen = live_->mutableAig().mkAnd(provenSeen, live_->seen(job.ob));
                seedSources.push_back(&job);
            }
        }
    }
    phaseBSpan.end();
    const double phaseBSeconds = liveJobs.empty() ? 0.0 : phaseB.seconds();

    stats_ = shared_.snapshot(total.seconds());
    stats_.phaseASeconds = phaseASeconds;
    stats_.phaseBSeconds = phaseBSeconds;
    stats_.peakRssKb = peakRssKb();
    if (cache_) {
        cache::CacheStats cs = cache_->stats();
        stats_.cacheLookups = cs.lookups;
        stats_.cacheHits = cs.hits;
        stats_.cacheStores = cs.stores;
        stats_.cacheSeededLemmas = cs.seededLemmas;
        stats_.cacheDegradedReason = cache_->degradedReason();
    }
    if (runDeadline) stats_.runStopCause = static_cast<uint64_t>(runDeadline->cause());
    std::vector<PropertyResult> results;
    results.reserve(jobs.size());
    for (ObligationJob& job : jobs) {
        finalizeDepth(job, opts_);
        if (job.result.unknownReason != UnknownReason::None) ++stats_.deadlineDegraded;
        results.push_back(std::move(job.result));
    }
    return results;
}

} // namespace autosva::formal
