#include "sva/report.hpp"

#include <cmath>

#include "util/table.hpp"

namespace autosva::sva {

using formal::PropertyResult;
using formal::Status;

size_t VerificationReport::count(Status status) const {
    size_t n = 0;
    for (const auto& r : results)
        if (r.status == status) ++n;
    return n;
}

size_t VerificationReport::totalChecked() const {
    return results.size() - count(Status::Skipped);
}

size_t VerificationReport::numCached() const {
    size_t n = 0;
    for (const auto& r : results)
        if (r.cached) ++n;
    return n;
}

double VerificationReport::proofRate() const {
    size_t proven = 0, judged = 0;
    for (const auto& r : results) {
        if (r.kind != ir::Obligation::Kind::SafetyBad &&
            r.kind != ir::Obligation::Kind::Justice)
            continue;
        if (r.status == Status::Skipped) continue;
        ++judged;
        if (r.status == Status::Proven) ++proven;
    }
    if (judged == 0) return 1.0;
    return static_cast<double>(proven) / static_cast<double>(judged);
}

bool VerificationReport::allProven() const {
    for (const auto& r : results) {
        if (r.kind != ir::Obligation::Kind::SafetyBad &&
            r.kind != ir::Obligation::Kind::Justice)
            continue;
        if (r.status == Status::Skipped) continue;
        if (r.status != Status::Proven) return false;
    }
    return true;
}

bool VerificationReport::degraded() const {
    for (const auto& r : results)
        if (r.unknownReason != formal::UnknownReason::None) return true;
    return false;
}

const PropertyResult* VerificationReport::firstFailure() const {
    for (const auto& r : results)
        if (r.status == Status::Failed) return &r;
    return nullptr;
}

const PropertyResult* VerificationReport::find(const std::string& name) const {
    for (const auto& r : results)
        if (r.name == name) return &r;
    // Accept hierarchy-suffix matches (bound property modules carry an
    // instance prefix such as "dut_prop_i.").
    for (const auto& r : results) {
        if (r.name.size() > name.size() &&
            r.name.compare(r.name.size() - name.size(), name.size(), name) == 0 &&
            r.name[r.name.size() - name.size() - 1] == '.')
            return &r;
    }
    return nullptr;
}

std::string VerificationReport::outcomeSummary() const {
    if (anyFailed()) {
        const PropertyResult* f = firstFailure();
        return "Bug found: " + f->name + " (CEX at " + std::to_string(f->depth) + " cycles)";
    }
    if (allProven()) return "100% liveness/safety properties proof";
    size_t unknown = count(Status::Unknown);
    return std::to_string(static_cast<int>(std::round(proofRate() * 100))) +
           "% proof, " + std::to_string(unknown) + " unresolved";
}

namespace {

const char* kindName(ir::Obligation::Kind kind) {
    switch (kind) {
    case ir::Obligation::Kind::SafetyBad: return "safety";
    case ir::Obligation::Kind::Justice: return "liveness";
    case ir::Obligation::Kind::Cover: return "cover";
    case ir::Obligation::Kind::Constraint: return "assume";
    case ir::Obligation::Kind::Fairness: return "fairness";
    }
    return "?";
}

} // namespace

std::string VerificationReport::str() const {
    util::TextTable table({"property", "kind", "status", "depth", "time(s)", "src"});
    for (const auto& r : results) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", r.seconds);
        const char* src = r.status == Status::Skipped ? "-" : (r.cached ? "cache" : "engine");
        std::string status = formal::statusName(r.status);
        if (r.unknownReason != formal::UnknownReason::None)
            status += std::string("(") + formal::unknownReasonName(r.unknownReason) + ")";
        table.addRow({r.name, kindName(r.kind), std::move(status),
                      r.depth >= 0 ? std::to_string(r.depth) : "-", buf, src});
    }
    std::string out = "DUT: " + dutName + "\n" + table.str();
    if (degraded())
        out += "Degraded run: deadline or interruption left obligations Unknown; "
               "rerun without a budget to decide them.\n";
    if (engineStats.cacheLookups > 0)
        out += "Proof cache: " + std::to_string(engineStats.cacheHits) + "/" +
               std::to_string(engineStats.cacheLookups) + " hits, " +
               std::to_string(engineStats.cacheSeededLemmas) + " lemmas seeded\n";
    // Provenance: point every failing property back at the designer
    // annotation it was generated from (the democratization promise — a
    // CEX names the line the designer wrote, not just a generated label).
    for (const auto& r : results) {
        if (r.status != Status::Failed || !r.loc.valid()) continue;
        out += "Failed " + r.name + " <- annotation at " + r.loc.file + ":" +
               std::to_string(r.loc.line) + "\n";
    }
    return out + "Outcome: " + outcomeSummary() + "\n";
}

std::string VerificationReport::canonical() const {
    std::string out;
    for (const auto& r : results) {
        out += r.name;
        out += '|';
        out += kindName(r.kind);
        out += '|';
        out += formal::statusName(r.status);
        out += '|';
        // Depth is semantic only for trace-bearing verdicts (shortest CEX /
        // cover witness length). For proofs and Unknowns it is engine
        // provenance — the PDR convergence frame moves with the graph
        // representation (the AIG rewrite legitimately converges at a
        // different frame) and the bound that ran out — so
        // it stays out of the canonical string, which must be
        // byte-identical across {rewrite on/off} x {jobs} x perturbations.
        const bool semanticDepth =
            r.status == formal::Status::Failed || r.status == formal::Status::Covered;
        out += semanticDepth ? std::to_string(r.depth) : std::string("-");
        out += '|';
        out += std::to_string(r.trace.length());
        out += '|';
        out += std::to_string(r.trace.loopStart);
        out += '\n';
    }
    return out;
}

} // namespace autosva::sva
