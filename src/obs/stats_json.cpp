#include "obs/stats_json.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "sva/report.hpp"

// The leading fields of the manifest's "engine" object, in emission
// order: X(json_key, engine_stats_member).
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

// Wall-clock fields that follow them, emitted with %.6f formatting.
#define AUTOSVA_ENGINE_JSON_DOUBLE_FIELDS(X)                                                 \
    X(phase_a_s, phaseASeconds)                                                              \
    X(phase_b_s, phaseBSeconds)

namespace autosva::obs {

namespace {

void escapeTo(std::ostream& out, const std::string& s) {
    for (char c : s) {
        if (c == '"' || c == '\\') out << '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out << ' ';
        else
            out << c;
    }
}

void emitDouble(std::ostream& out, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    out << buf;
}

const char* kindName(ir::Obligation::Kind kind) {
    switch (kind) {
    case ir::Obligation::Kind::SafetyBad: return "assert";
    case ir::Obligation::Kind::Constraint: return "assume";
    case ir::Obligation::Kind::Justice: return "justice";
    case ir::Obligation::Kind::Fairness: return "fairness";
    case ir::Obligation::Kind::Cover: return "cover";
    }
    return "unknown";
}

} // namespace

void writeStatsJson(std::ostream& out, const sva::VerificationReport& report) {
    const formal::EngineStats& es = report.engineStats;
    out << "{\"schema\": \"autosva-run-v1\", \"dut\": \"";
    escapeTo(out, report.dutName);
    out << "\", \"engine\": {";
    bool first = true;
#define X(json, member)                                                                      \
    out << (first ? "" : ", ") << "\"" #json "\": " << es.member;                            \
    first = false;
    AUTOSVA_ENGINE_JSON_U64_FIELDS(X)
#undef X
#define X(json, member)                                                                      \
    out << ", \"" #json "\": ";                                                              \
    emitDouble(out, es.member);
    AUTOSVA_ENGINE_JSON_DOUBLE_FIELDS(X)
#undef X
    out << ", \"total_s\": ";
    emitDouble(out, es.totalSeconds);
    out << ", \"propagations\": " << es.propagations
        << ", \"encoder_vars\": " << es.encoderVars
        << ", \"encoder_clauses\": " << es.encoderClauses
        << ", \"cones_materialized\": " << es.conesMaterialized
        << ", \"solver_reuses\": " << es.solverReuses
        << ", \"cache_lookups\": " << es.cacheLookups << ", \"cache_hits\": " << es.cacheHits
        << ", \"cache_stores\": " << es.cacheStores
        << ", \"cache_seeded_lemmas\": " << es.cacheSeededLemmas
        << ", \"deadline_degraded\": " << es.deadlineDegraded
        << ", \"run_stop_cause\": " << es.runStopCause << ", \"cache_degraded\": \"";
    escapeTo(out, es.cacheDegradedReason);
    out << "\"}";
    out << ", \"degraded\": " << (report.degraded() ? "true" : "false");
    const sva::FrontendStats& fe = report.frontend;
    out << ", \"frontend\": {\"sources_parsed\": " << fe.sourcesParsed
        << ", \"generated_reparses\": " << fe.generatedTextReparses
        << ", \"generated_ast_reused\": " << fe.generatedAstReused << "}";
    out << ", \"properties\": [";
    for (size_t i = 0; i < report.results.size(); ++i) {
        const formal::PropertyResult& r = report.results[i];
        out << (i ? ", " : "") << "{\"name\": \"";
        escapeTo(out, r.name);
        out << "\", \"kind\": \"" << kindName(r.kind) << "\", \"status\": \""
            << formal::statusName(r.status) << "\", \"depth\": " << r.depth
            << ", \"seconds\": ";
        emitDouble(out, r.seconds);
        out << ", \"cached\": " << (r.cached ? "true" : "false") << ", \"unknown_reason\": \""
            << formal::unknownReasonName(r.unknownReason) << "\"}";
    }
    out << "]}\n";
}

bool writeStatsJsonFile(const std::string& path, const sva::VerificationReport& report) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write --stats-json file '" << path << "'\n";
        return false;
    }
    writeStatsJson(out, report);
    if (!out.good()) {
        std::cerr << "error: short write to --stats-json file '" << path << "'\n";
        return false;
    }
    return true;
}

} // namespace autosva::obs
