// The machine-readable run manifest (`--stats-json`) and the single
// source of truth for the engine-derived JSON field list shared with
// bench_common.hpp's --json emitter.
//
// The X-macros below pair each JSON key with the EngineStats member it
// reads. bench_common.hpp expands the same macros to fill and emit its
// JsonRow fields (whose member names equal the JSON keys), so the bench
// rows and the run manifest cannot drift: adding a field here without a
// matching JsonRow member is a compile error, and renaming either side
// breaks the build instead of silently forking the schema.
#pragma once

#include <ostream>
#include <string>

namespace autosva::sva {
struct VerificationReport;
}

/// EngineStats-derived integer fields: X(json_key, engine_stats_member).
#define AUTOSVA_ENGINE_JSON_U64_FIELDS(X)                                                    \
    X(sat_calls, satCalls)                                                                   \
    X(conflicts, conflicts)                                                                  \
    X(pdr_frames, pdrFramesOpened)                                                           \
    X(pdr_cubes, pdrCubesBlocked)                                                            \
    X(pdr_gen_drops, pdrGenDropAttempts)                                                     \
    X(pdr_seeds, pdrSeedCubesAdmitted)                                                       \
    X(pdr_lifted, pdrLiftedLiterals)                                                         \
    X(pdr_conflicts, pdrConflicts)                                                           \
    X(pdr_propagations, pdrPropagations)                                                     \
    X(pdr_q_bad, pdrBadQueries)                                                              \
    X(pdr_q_block, pdrBlockQueries)                                                          \
    X(pdr_q_validate, pdrValidateQueries)                                                    \
    X(pdr_q_drop, pdrDropQueries)                                                            \
    X(pdr_q_push, pdrPushQueries)                                                            \
    X(pdr_q_side, pdrSideSolves)                                                             \
    X(hygiene_drops, hygieneClausesDropped)                                                  \
    X(live_clauses, solverLiveClauses)                                                       \
    X(learnt_clauses, solverLearntClauses)                                                   \
    X(peak_rss_kb, peakRssKb)

/// EngineStats-derived wall-clock fields (emitted with %.6f formatting).
#define AUTOSVA_ENGINE_JSON_DOUBLE_FIELDS(X)                                                 \
    X(phase_a_s, phaseASeconds)                                                              \
    X(phase_b_s, phaseBSeconds)

namespace autosva::obs {

/// Writes the full run manifest: `{"schema": "autosva-run-v1", "dut": ...,
/// "engine": {...}, "frontend": {...}, "properties": [...]}`. The engine
/// object carries the shared fields above plus the remaining EngineStats
/// counters; properties are the per-property rows in declaration order.
void writeStatsJson(std::ostream& out, const sva::VerificationReport& report);

/// writeStatsJson to `path`. Returns false (after printing a diagnostic to
/// stderr) when the file cannot be written.
bool writeStatsJsonFile(const std::string& path, const sva::VerificationReport& report);

} // namespace autosva::obs
