// Observability-layer tests (src/obs/): the verdict-inertness contract
// (canonical reports byte-identical with tracing on or off, at any worker
// count), well-formedness of the Chrome-trace / JSONL exports, the
// profiler's query-attribution reconciliation against EngineStats, and the
// --stats-json run manifest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <sstream>

#include "core/autosva.hpp"
#include "designs/designs.hpp"
#include "obs/profile.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace.hpp"
#include "sva/report.hpp"

namespace {

using namespace autosva;

// ---------------------------------------------------------------------------
// Minimal JSON validator (recursive descent, value grammar only) — enough
// to assert the exporters emit parseable JSON without an external parser.
// ---------------------------------------------------------------------------

class JsonScanner {
public:
    explicit JsonScanner(const std::string& text) : s_(text) {}

    [[nodiscard]] bool valid() {
        skipWs();
        if (!value()) return false;
        skipWs();
        return pos_ == s_.size();
    }

private:
    void skipWs() {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    }
    [[nodiscard]] bool eat(char c) {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    [[nodiscard]] bool string() {
        if (!eat('"')) return false;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') ++pos_;
            ++pos_;
        }
        return eat('"');
    }
    [[nodiscard]] bool number() {
        size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }
    [[nodiscard]] bool literal(const char* word) {
        size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0) return false;
        pos_ += n;
        return true;
    }
    [[nodiscard]] bool value() {
        skipWs();
        if (pos_ >= s_.size()) return false;
        char c = s_[pos_];
        if (c == '{') return object();
        if (c == '[') return array();
        if (c == '"') return string();
        if (c == 't') return literal("true");
        if (c == 'f') return literal("false");
        if (c == 'n') return literal("null");
        return number();
    }
    [[nodiscard]] bool object() {
        if (!eat('{')) return false;
        skipWs();
        if (eat('}')) return true;
        do {
            skipWs();
            if (!string()) return false;
            skipWs();
            if (!eat(':')) return false;
            if (!value()) return false;
            skipWs();
        } while (eat(','));
        return eat('}');
    }
    [[nodiscard]] bool array() {
        if (!eat('[')) return false;
        skipWs();
        if (eat(']')) return true;
        do {
            if (!value()) return false;
            skipWs();
        } while (eat(','));
        return eat(']');
    }

    const std::string& s_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Recorder / Span / LaneScope unit behavior
// ---------------------------------------------------------------------------

TEST(Recorder, LaneScopeNestsAndRestores) {
    EXPECT_EQ(obs::LaneScope::current(), obs::kSchedulerLane);
    {
        obs::LaneScope outer(3);
        EXPECT_EQ(obs::LaneScope::current(), 3);
        {
            obs::LaneScope inner(7);
            EXPECT_EQ(obs::LaneScope::current(), 7);
        }
        EXPECT_EQ(obs::LaneScope::current(), 3);
    }
    EXPECT_EQ(obs::LaneScope::current(), obs::kSchedulerLane);
}

TEST(Recorder, NullRecorderSpanIsANoOp) {
    obs::Span span(nullptr, "strategy", "bmc", 0);
    span.arg("queries", 7);
    span.end();
    span.end(); // Idempotent.
}

TEST(Recorder, SpanArgsRideOnTheEndEvent) {
    obs::Recorder rec;
    {
        obs::Span span(&rec, "strategy", "pdr", 2);
        span.arg("queries", 41);
        rec.instant("cache", "miss", 2);
    }
    auto events = rec.merged();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, obs::TraceEvent::Kind::Begin);
    EXPECT_EQ(events[1].kind, obs::TraceEvent::Kind::Instant);
    EXPECT_EQ(events[2].kind, obs::TraceEvent::Kind::End);
    EXPECT_EQ(events[2].numArgs, 1);
    EXPECT_STREQ(events[2].args[0].key, "queries");
    EXPECT_EQ(events[2].args[0].val, 41u);
    EXPECT_EQ(obs::validateTrace(events), "");
}

TEST(Recorder, ObligationNameRendering) {
    obs::Recorder rec;
    rec.setObligationNames({"as__first", "as__second"});
    EXPECT_EQ(rec.obName(-1), "-");
    EXPECT_EQ(rec.obName(0), "as__first");
    EXPECT_EQ(rec.obName(5), "ob-5"); // Past the registered names.
}

TEST(Recorder, ValidatorCatchesMalformedNesting) {
    obs::Recorder rec;
    rec.record(obs::TraceEvent::Kind::End, "phase", "phase-a", -1);
    EXPECT_NE(obs::validateTrace(rec.merged()), "");

    obs::Recorder open;
    open.record(obs::TraceEvent::Kind::Begin, "phase", "phase-a", -1);
    EXPECT_NE(obs::validateTrace(open.merged()), "");
}

// ---------------------------------------------------------------------------
// Verdict inertness + export well-formedness on registry designs
// ---------------------------------------------------------------------------

sva::VerificationReport runDesign(const std::string& name, int jobs, obs::Recorder* rec) {
    const auto& info = designs::design(name);
    util::DiagEngine diags;
    core::FormalTestbench ft = core::generateFT(info.rtl, {}, diags);
    core::VerifyOptions vopts;
    vopts.engine.jobs = jobs;
    vopts.engine.trace = rec;
    if (!info.extensionSva.empty()) vopts.extraSources.push_back(info.extensionSva);
    return core::verify(designs::rtlSources(info), ft, vopts, diags);
}

/// The tentpole contract, gated per design: canonical() is byte-identical
/// across {trace off, trace on} x {jobs 1, jobs 4}, the trace is
/// structurally well-formed, both exports are valid JSON, the profiler's
/// attributed queries reconcile exactly with EngineStats::satCalls of the
/// same run, and every proof is a PDR proof: each Proven or Unreachable
/// row has a `pdr` stage in the profile. Returns the untraced jobs=1 run's
/// counters.
formal::EngineStats checkTraceInertness(const std::string& design) {
    const sva::VerificationReport base = runDesign(design, 1, nullptr);
    const std::string baseline = base.canonical();
    EXPECT_FALSE(baseline.empty());
    EXPECT_EQ(runDesign(design, 4, nullptr).canonical(), baseline) << design << " jobs=4";
    for (int jobs : {1, 4}) {
        obs::Recorder rec;
        sva::VerificationReport report = runDesign(design, jobs, &rec);
        EXPECT_EQ(report.canonical(), baseline) << design << " traced, jobs=" << jobs;
        EXPECT_GT(rec.eventCount(), 0u);

        // Structural validity: per-lane monotone timestamps, matched spans.
        EXPECT_EQ(obs::validateTrace(rec.merged()), "") << design << " jobs=" << jobs;

        // Chrome trace export parses as JSON.
        std::ostringstream chrome;
        obs::writeChromeTrace(rec, chrome);
        const std::string chromeText = chrome.str();
        EXPECT_TRUE(JsonScanner(chromeText).valid()) << chromeText.substr(0, 400);
        EXPECT_NE(chromeText.find("\"traceEvents\""), std::string::npos);
        EXPECT_NE(chromeText.find("thread_name"), std::string::npos);

        // JSONL export: every line parses as one JSON object.
        std::ostringstream jsonl;
        obs::writeJsonl(rec, jsonl);
        std::istringstream lines(jsonl.str());
        std::string line;
        size_t numLines = 0;
        while (std::getline(lines, line)) {
            ++numLines;
            EXPECT_TRUE(JsonScanner(line).valid()) << line;
        }
        EXPECT_EQ(numLines, rec.eventCount());

        // Attribution invariant: every satCalls increment emits a matching
        // "queries" arg on an obligation-attributed event.
        obs::RunProfile profile = obs::buildProfile(rec);
        EXPECT_EQ(profile.attributedQueries, report.engineStats.satCalls)
            << design << " jobs=" << jobs;
        EXPECT_FALSE(profile.obligations.empty());
        EXPECT_FALSE(profile.phases.empty());
        for (const formal::PropertyResult& r : report.results) {
            if (r.status != formal::Status::Proven && r.status != formal::Status::Unreachable)
                continue;
            const auto ob = std::find_if(profile.obligations.begin(), profile.obligations.end(),
                                         [&](const obs::ObligationProfile& o) {
                                             return o.name == r.name;
                                         });
            const bool byPdr =
                ob != profile.obligations.end() &&
                std::any_of(ob->stages.begin(), ob->stages.end(),
                            [](const auto& st) { return st.first == "pdr"; });
            EXPECT_TRUE(byPdr) << design << " " << r.name << " jobs=" << jobs;
        }
        const std::string rendered = obs::renderProfile(profile, report);
        EXPECT_NE(rendered.find("reconciled"), std::string::npos) << rendered;
    }
    return base.engineStats;
}

TEST(ObsInertness, MemEngine) { checkTraceInertness("mem_engine"); }

// ariane_tlb's shallow safety invariants and its hsk_or_drop liveness
// property close within a few frames; each must still be a PDR proof.
TEST(ObsInertness, ArianeTlb) { checkTraceInertness("ariane_tlb"); }

// noc_buffer's lemma chain admits seeds, so the reconciliation also covers
// the seed-admission solves PDR counts beside its own queries.
TEST(ObsInertness, NocBuffer) {
    EXPECT_GT(checkTraceInertness("noc_buffer").pdrSeedCubesAdmitted, 0u);
}

// ---------------------------------------------------------------------------
// --stats-json manifest
// ---------------------------------------------------------------------------

TEST(StatsJson, ManifestIsValidJsonWithSharedSchemaFields) {
    sva::VerificationReport report = runDesign("mem_engine", 1, nullptr);
    std::ostringstream out;
    obs::writeStatsJson(out, report);
    const std::string text = out.str();
    EXPECT_TRUE(JsonScanner(text).valid()) << text.substr(0, 400);
    EXPECT_NE(text.find("\"schema\": \"autosva-run-v1\""), std::string::npos);
    // One spot-check per engine field list: the keys really appear.
    EXPECT_NE(text.find("\"sat_calls\""), std::string::npos);
    EXPECT_NE(text.find("\"phase_a_s\""), std::string::npos);
    EXPECT_NE(text.find("\"properties\""), std::string::npos);
    // Every property row made it.
    for (const auto& r : report.results)
        EXPECT_NE(text.find("\"" + r.name + "\""), std::string::npos) << r.name;
}

} // namespace
