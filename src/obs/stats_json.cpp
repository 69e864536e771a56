#include "obs/stats_json.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "sva/report.hpp"

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
    out << "\", \"engine\": {\"sat_calls\": " << es.satCalls
        << ", \"conflicts\": " << es.conflicts
        << ", \"pdr_frames\": " << es.pdrFramesOpened
        << ", \"pdr_cubes\": " << es.pdrCubesBlocked
        << ", \"pdr_gen_drops\": " << es.pdrGenDropAttempts
        << ", \"pdr_seeds\": " << es.pdrSeedCubesAdmitted
        << ", \"pdr_lifted\": " << es.pdrLiftedLiterals
        << ", \"pdr_conflicts\": " << es.pdrConflicts
        << ", \"pdr_propagations\": " << es.pdrPropagations
        << ", \"pdr_q_bad\": " << es.pdrBadQueries
        << ", \"pdr_q_block\": " << es.pdrBlockQueries
        << ", \"pdr_q_validate\": " << es.pdrValidateQueries
        << ", \"pdr_q_drop\": " << es.pdrDropQueries
        << ", \"pdr_q_push\": " << es.pdrPushQueries
        << ", \"pdr_q_side\": " << es.pdrSideSolves
        << ", \"hygiene_drops\": " << es.hygieneClausesDropped
        << ", \"live_clauses\": " << es.solverLiveClauses
        << ", \"learnt_clauses\": " << es.solverLearntClauses
        << ", \"peak_rss_kb\": " << es.peakRssKb << ", \"phase_a_s\": ";
    emitDouble(out, es.phaseASeconds);
    out << ", \"phase_b_s\": ";
    emitDouble(out, es.phaseBSeconds);
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
