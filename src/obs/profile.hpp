// The run profiler behind `autosva profile` / `--profile`: folds one
// recorder's event stream into a per-obligation stage/time/query
// breakdown, a worker-utilization summary, the phase timeline, and cache
// effectiveness — and renders it as the human summary the CLI prints.
//
// Attribution invariant: every site that increments SharedStats::satCalls
// also emits a "queries" arg on an obligation-attributed span End or
// Counter event, so summing them reconciles exactly with
// EngineStats::satCalls (tests/test_obs.cpp gates this).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace autosva::sva {
struct VerificationReport;
}

namespace autosva::obs {

class Recorder;

/// Cost of one pipeline stage (span name) of one obligation.
struct StageCost {
    double seconds = 0.0;
    uint64_t queries = 0;
};

struct ObligationProfile {
    int64_t index = -1;
    std::string name;
    double seconds = 0.0;   ///< Engine time across all stages (span durations).
    uint64_t queries = 0;   ///< Attributed SAT queries across all stages.
    // PDR counters attributed to this obligation (span End / Counter args).
    uint64_t frames = 0;
    uint64_t cubes = 0;
    uint64_t drops = 0;
    uint64_t seeds = 0;
    bool cacheHit = false;
    /// Per-stage breakdown in first-seen order (bmc, pdr, ...).
    std::vector<std::pair<std::string, StageCost>> stages;
};

/// One scheduler-phase span ("phase" category), with its nesting depth for
/// indented timeline rendering.
struct PhaseSlice {
    std::string name;
    int depth = 0;
    double startSeconds = 0.0;
    double seconds = 0.0;
};

/// Busy time of one worker lane: the union of its top-level span intervals.
struct LaneLoad {
    int lane = 0;
    double busySeconds = 0.0;
    uint64_t spans = 0;
};

struct RunProfile {
    double wallSeconds = 0.0; ///< Last event timestamp (trace-window wall clock).
    uint64_t attributedQueries = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheSeedEvents = 0;
    uint64_t cacheStores = 0;
    std::vector<ObligationProfile> obligations; ///< Sorted by seconds, descending.
    std::vector<PhaseSlice> phases;
    std::vector<LaneLoad> lanes; ///< Worker lanes only (scheduler lane excluded).
};

/// Folds the recorder's merged event stream into a RunProfile. Call after
/// the run finished (all recording threads joined).
[[nodiscard]] RunProfile buildProfile(const Recorder& rec);

/// Human summary: top-K slowest properties with per-stage time/query
/// breakdowns, worker utilization, phase timeline, cache effectiveness,
/// and the queries-vs-EngineStats reconciliation line.
[[nodiscard]] std::string renderProfile(const RunProfile& profile,
                                        const sva::VerificationReport& report,
                                        size_t topK = 10);

} // namespace autosva::obs
