// The `autosva` command-line tool — the user experience of the original
// Python script: point it at an annotated RTL file, get a ready-to-run
// formal testbench, optionally run the built-in engine on the spot.
//
//   autosva gen  <dut.sv> [-o OUTDIR] [--tool jasper|sby|all] [--assert-inputs]
//   autosva run  <dut.sv> [extra.sv ...] [--bug N] [--depth N] [--no-liveness]
//   autosva sim  <dut.sv> [--cycles N] [--seed N] [--vcd FILE]
//   autosva list                     # registered paper designs
//   autosva run-design <name> [...]  # verify a registered design
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "cache/store.hpp"
#include "core/autosva.hpp"
#include "designs/designs.hpp"
#include "formal/replay.hpp"
#include "obs/profile.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace.hpp"
#include "robust/faultinject.hpp"
#include "sim/vcd.hpp"

namespace {

using namespace autosva;
namespace fs = std::filesystem;

/// SIGINT/SIGTERM request an orderly stop: the run's deadline checks this
/// flag wherever a solver checks for cancellation, the run drains to a
/// partial (degraded) report, and artifacts still flush. A second signal
/// while the drain is in progress exits immediately.
std::atomic<bool> gStopRequested{false};

extern "C" void handleStopSignal(int) {
    if (gStopRequested.exchange(true)) std::_Exit(130);
}

[[noreturn]] void usage() {
    std::cerr <<
        R"(autosva — generate and run formal testbenches from RTL annotations

usage:
  autosva gen  <dut.sv> [-o OUTDIR] [--tool jasper|sby|all] [--assert-inputs]
               [--no-xprop] [--max-outstanding N] [--dut NAME]
  autosva run  <dut.sv> [extra.sv ...] [--param NAME=VALUE] [--depth N]
               [--jobs N] [--pdr-queries N]
               [--time-budget S] [--obligation-timeout S]
               [--no-liveness] [--no-covers]
               [--cache-dir DIR] [--no-cache] [--cache-stats] [--cache-compact]
               [--stats]
               [--profile] [--trace-out FILE] [--events-out FILE]
               [--stats-json FILE] [--fault-inject SPEC]
  autosva sim  <dut.sv> [--cycles N] [--seed N] [--vcd FILE]
  autosva list
  autosva cache compact [--cache-dir DIR]
  autosva run-design <name> [--bug 0|1] [--depth N] [--jobs N]
               [--pdr-queries N]
               [--time-budget S] [--obligation-timeout S]
               [--cache-dir DIR] [--no-cache] [--cache-stats] [--cache-compact]
               [--stats]
               [--profile] [--trace-out FILE] [--events-out FILE]
               [--stats-json FILE] [--fault-inject SPEC]
  autosva profile <dut.sv | design-name> [run options]
               # sugar for run/run-design with --profile

options:
  --depth N        BMC probe depth (default 8). Deeper counterexamples and
                   covers come from PDR plus a shortest-first replay, so
                   decided verdicts and trace depths do not depend on N. A
                   deeper probe buys only the counterexamples PDR cannot
                   reach within --pdr-queries, and its cost grows steeply
                   with N: l15_noc_wrapper takes 0.07 s at depth 8, 0.3 s
                   at 12, 7.6 s at 16 and minutes at 25.
  --jobs N         worker threads for property discharge (default 1; 0 = one
                   per hardware thread). Per-property verdicts, depths, and
                   report ordering are identical for every value of N.
  --pdr-queries N  PDR SAT-query budget per property (default 1000000).
                   Verdicts are monotone in the budget: raising it can only
                   turn Unknowns into proofs or counterexamples. Each
                   liveness proof is seeded with the invariants proven
                   before it; re-validating those seeds is not charged to
                   the budget, but counts in --stats sat-calls.
  --time-budget S  wall-clock budget for the whole run, in (fractional)
                   seconds. On expiry every in-flight solve is cancelled
                   and remaining obligations report unknown(run-budget);
                   the run always terminates within the budget plus a
                   small cancellation grace, with a well-formed (degraded)
                   report covering every obligation. Verdicts present are
                   sound, but a deadline run forfeits the byte-identical
                   canonical-report contract.
  --obligation-timeout S  per-obligation wall-clock deadline on the
                   obligation's PDR stage; an expired obligation degrades
                   to unknown(timeout) while the rest of the run proceeds
                   normally. BMC sweeps serve many obligations at once and
                   answer to --time-budget instead. SIGINT/SIGTERM stop the
                   run the same orderly way (partial report, artifacts
                   flushed, exit 130); a second signal exits immediately.
  --fault-inject SPEC  deterministic fault injection for robustness
                   testing: SPEC is site:N[,site:N...] — fire the fault at
                   the N-th (1-based) hit of the site. Sites: cache-read,
                   cache-write, solver-interrupt, bitblast-alloc,
                   propgen-alloc. Injected faults degrade (cache off,
                   obligation unknown) — never crash, never flip a
                   verdict; a summary of fired sites prints at exit.
  --cache-dir DIR  persistent proof-cache directory (default:
                   $AUTOSVA_CACHE_DIR, else $XDG_CACHE_HOME/autosva, else
                   ~/.cache/autosva). Reruns of unchanged obligations are
                   answered from the cache without SAT work, with verdicts
                   identical to an uncached run; after an RTL edit, prior
                   proofs may seed PDR (re-validated — pass/fail verdicts
                   never depend on cache contents).
  --no-cache       disable the proof cache for this run.
  --cache-stats    print proof-cache hit/seed statistics after the report.
  --cache-compact  compact the proof-cache log after the run: keep the
                   newest record per key, drop corrupt records, atomically
                   swap in the fresh generation (also available standalone
                   as `autosva cache compact`).
  --stats          print engine counters after the report: SAT calls,
                   conflicts, propagations, encoder vars/clauses created,
                   cones materialized, solver reuses, clauses dropped by
                   clause hygiene, and the PDR frame/generalization/seed
                   counters.
  --profile        print the run profile after the report: top slowest
                   properties with per-stage time/query breakdowns, worker
                   utilization, the phase timeline, and cache
                   effectiveness. Tracing is verdict-inert: the report is
                   byte-identical with or without it, at any --jobs.
  --trace-out FILE write the run's event timeline as Chrome trace-event
                   JSON (open in Perfetto or chrome://tracing; one track
                   per worker lane plus the scheduler track).
  --events-out FILE  write the raw event stream as JSONL (one event object
                   per line, merged across threads in timestamp order).
  --stats-json FILE  write a machine-readable run manifest: engine and
                   frontend counters plus per-property verdicts/depths/
                   times (schema autosva-run-v1).
)";
    std::exit(2);
}

std::string readFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::cerr << "error: cannot open '" << path << "'\n";
        std::exit(1);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void writeFile(const fs::path& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
    std::cout << "  wrote " << path.string() << " (" << content.size() << " bytes)\n";
}

/// The one validated numeric parser every flag goes through (--jobs,
/// --depth, --cycles, --seed, --bug, --max-outstanding, --param values).
/// Rejects trailing garbage, signs, and out-of-range values with a
/// consistent diagnostic instead of silently wrapping.
[[nodiscard]] uint64_t parseUnsigned(const std::string& what, const std::string& text,
                                     uint64_t min, uint64_t max) {
    bool malformed = text.empty() || text[0] == '-' || text[0] == '+';
    uint64_t value = 0;
    if (!malformed) {
        try {
            size_t pos = 0;
            value = std::stoull(text, &pos);
            malformed = pos != text.size();
        } catch (const std::exception&) {
            malformed = true;
        }
    }
    if (malformed || value < min || value > max) {
        std::cerr << "error: " << what << " expects an integer in [" << min << ", " << max
                  << "], got '" << text << "'\n";
        std::exit(2);
    }
    return value;
}

/// Fractional-seconds parser for the deadline flags: positive, finite,
/// no trailing garbage.
[[nodiscard]] double parseSeconds(const std::string& what, const std::string& text) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(value) ||
        value <= 0.0) {
        std::cerr << "error: " << what << " expects a positive number of seconds, got '"
                  << text << "'\n";
        std::exit(2);
    }
    return value;
}

/// Fails fast (exit 2) when an output-file flag points somewhere
/// unwritable — before any verification work, not after hours of solving.
/// The probe opens in append mode so a pre-existing file is untouched; a
/// file the probe had to create is removed again.
void requireWritablePath(const char* flag, const std::string& path) {
    std::error_code ec;
    const bool existed = fs::exists(path, ec);
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
        std::cerr << "error: " << flag << " path '" << path << "' is not writable\n";
        std::exit(2);
    }
    probe.close();
    if (!existed) fs::remove(path, ec);
}

struct Args {
    std::vector<std::string> positional;
    std::unordered_map<std::string, std::string> options;
    std::vector<std::pair<std::string, uint64_t>> params;

    [[nodiscard]] bool has(const std::string& name) const { return options.count(name) != 0; }
    [[nodiscard]] std::string get(const std::string& name, const std::string& dflt) const {
        auto it = options.find(name);
        return it == options.end() ? dflt : it->second;
    }
    [[nodiscard]] long getInt(const std::string& name, long dflt, uint64_t min = 0,
                              uint64_t max = 1000000000) const {
        auto it = options.find(name);
        if (it == options.end()) return dflt;
        return static_cast<long>(parseUnsigned(name, it->second, min, max));
    }
    /// --jobs with the 0 = one-per-hardware-thread convention.
    [[nodiscard]] int jobs() const {
        int n = static_cast<int>(getInt("--jobs", 1, 0, 4096));
        return n == 0 ? static_cast<int>(std::thread::hardware_concurrency()) : n;
    }
};

/// Parses the arguments after the subcommand. Only the options the usage
/// text lists are accepted: any other option exits 2 with a diagnostic
/// instead of being silently ignored (a misspelt --no-cache must not run
/// with the cache).
Args parseArgs(int argc, char** argv, int start) {
    Args args;
    static const std::vector<std::string> valueOpts = {
        "-o",     "--tool",  "--max-outstanding", "--dut",         "--depth",
        "--jobs", "--cycles", "--seed",           "--vcd",         "--bug",
        "--param", "--cache-dir", "--pdr-queries", "--time-budget",
        "--obligation-timeout", "--fault-inject", "--trace-out", "--events-out",
        "--stats-json"};
    static const std::vector<std::string> flagOpts = {
        "--assert-inputs", "--no-xprop",     "--no-liveness", "--no-covers", "--no-cache",
        "--cache-stats",   "--cache-compact", "--stats",      "--profile"};
    auto listed = [](const std::vector<std::string>& opts, const std::string& a) {
        return std::find(opts.begin(), opts.end(), a) != opts.end();
    };
    for (int i = start; i < argc; ++i) {
        std::string a = argv[i];
        if (listed(valueOpts, a)) {
            if (i + 1 >= argc) usage();
            std::string value = argv[++i];
            if (a == "--param") {
                auto eq = value.find('=');
                if (eq == std::string::npos) usage();
                args.params.emplace_back(
                    value.substr(0, eq),
                    parseUnsigned("--param " + value.substr(0, eq), value.substr(eq + 1), 0,
                                  UINT64_MAX));
            } else {
                args.options[a] = value;
            }
        } else if (listed(flagOpts, a)) {
            args.options[a] = "1";
        } else if (a.size() > 1 && a[0] == '-') {
            std::cerr << "error: unknown option " << a << "\n";
            std::exit(2);
        } else {
            args.positional.push_back(a);
        }
    }
    return args;
}

core::FormalTestbench generate(const std::string& rtl, const std::string& rtlPath,
                               const Args& args, util::DiagEngine& diags) {
    core::AutoSvaOptions opts;
    opts.dutName = args.get("--dut", "");
    opts.sourcePath = rtlPath;
    opts.assertInputs = args.has("--assert-inputs");
    opts.includeXprop = !args.has("--no-xprop");
    opts.maxOutstanding = static_cast<int>(args.getInt("--max-outstanding", 8));
    return core::generateFT(rtl, opts, diags);
}

int cmdGen(const Args& args) {
    if (args.positional.empty()) usage();
    std::string rtl = readFile(args.positional[0]);
    util::DiagEngine diags;
    core::FormalTestbench ft = generate(rtl, args.positional[0], args, diags);
    std::cerr << diags.str();

    fs::path outDir = args.get("-o", ft.dutName + "_ft");
    fs::create_directories(outDir);
    std::cout << "Generated " << ft.numProperties() << " properties ("
              << ft.numAssertions() << " asserts, " << ft.numAssumptions() << " assumes, "
              << ft.numCovers() << " covers) from " << ft.annotationLines
              << " annotation lines in " << ft.generationSeconds * 1e3 << " ms\n";
    writeFile(outDir / (ft.propertyModuleName + ".sv"), ft.propertyFile);
    writeFile(outDir / (ft.dutName + "_bind.svh"), ft.bindFile);
    std::string tool = args.get("--tool", "all");
    if (tool == "jasper" || tool == "all") writeFile(outDir / "jasper.tcl", ft.jasperTcl);
    if (tool == "sby" || tool == "all") writeFile(outDir / (ft.dutName + ".sby"), ft.sbyFile);
    return 0;
}

int runReport(const std::vector<std::string>& sources,
              const std::vector<std::string>& sourcePaths, const core::FormalTestbench& ft,
              const Args& args) {
    util::DiagEngine diags;
    core::VerifyOptions vopts;
    vopts.sourcePaths = sourcePaths;
    vopts.engine.bmcDepth = static_cast<int>(args.getInt("--depth", vopts.engine.bmcDepth, 1));
    vopts.engine.jobs = args.jobs();
    vopts.engine.pdrMaxQueries = static_cast<uint64_t>(
        args.getInt("--pdr-queries", static_cast<long>(vopts.engine.pdrMaxQueries), 1));
    if (args.has("--time-budget"))
        vopts.engine.timeBudgetSeconds =
            parseSeconds("--time-budget", args.get("--time-budget", ""));
    if (args.has("--obligation-timeout"))
        vopts.engine.obligationTimeoutSeconds =
            parseSeconds("--obligation-timeout", args.get("--obligation-timeout", ""));
    // Always wired: SIGINT/SIGTERM degrade any CLI run to an orderly stop.
    vopts.engine.stopFlag = &gStopRequested;
    // Output-path preflight: reject unwritable destinations before solving.
    if (args.has("--trace-out"))
        requireWritablePath("--trace-out", args.get("--trace-out", ""));
    if (args.has("--events-out"))
        requireWritablePath("--events-out", args.get("--events-out", ""));
    if (args.has("--stats-json"))
        requireWritablePath("--stats-json", args.get("--stats-json", ""));
    vopts.engine.useLivenessToSafety = !args.has("--no-liveness");
    vopts.engine.checkCovers = !args.has("--no-covers");
    if (!args.has("--no-cache"))
        vopts.engine.cacheDir = args.get("--cache-dir", cache::ProofCache::defaultDir());
    for (const auto& [name, value] : args.params) vopts.paramOverrides[name] = value;
    // One recorder covers the whole run; it must outlive verify(). Tracing
    // is verdict-inert, so attaching it cannot change the report below.
    obs::Recorder recorder;
    if (args.has("--trace-out") || args.has("--events-out") || args.has("--profile"))
        vopts.engine.trace = &recorder;
    auto report = core::verify(sources, ft, vopts, diags);
    std::cout << report.str();
    if (args.has("--stats")) {
        const formal::EngineStats& es = report.engineStats;
        std::printf("engine: sat-calls=%llu conflicts=%llu propagations=%llu\n"
                    "encoder: vars=%llu clauses=%llu cones=%llu solver-reuses=%llu "
                    "hygiene-drops=%llu\n"
                    "pdr: frames-opened=%llu cubes-blocked=%llu gen-drop-attempts=%llu "
                    "seed-cubes-admitted=%llu lifted=%llu conflicts=%llu propagations=%llu "
                    "q-bad=%llu q-block=%llu q-validate=%llu q-drop=%llu q-push=%llu "
                    "q-side=%llu\n"
                    "mem: peak-rss-kb=%llu live-clauses=%llu learnt-clauses=%llu\n"
                    "phase: a=%.3fs b=%.3fs\n",
                    static_cast<unsigned long long>(es.satCalls),
                    static_cast<unsigned long long>(es.conflicts),
                    static_cast<unsigned long long>(es.propagations),
                    static_cast<unsigned long long>(es.encoderVars),
                    static_cast<unsigned long long>(es.encoderClauses),
                    static_cast<unsigned long long>(es.conesMaterialized),
                    static_cast<unsigned long long>(es.solverReuses),
                    static_cast<unsigned long long>(es.hygieneClausesDropped),
                    static_cast<unsigned long long>(es.pdrFramesOpened),
                    static_cast<unsigned long long>(es.pdrCubesBlocked),
                    static_cast<unsigned long long>(es.pdrGenDropAttempts),
                    static_cast<unsigned long long>(es.pdrSeedCubesAdmitted),
                    static_cast<unsigned long long>(es.pdrLiftedLiterals),
                    static_cast<unsigned long long>(es.pdrConflicts),
                    static_cast<unsigned long long>(es.pdrPropagations),
                    static_cast<unsigned long long>(es.pdrBadQueries),
                    static_cast<unsigned long long>(es.pdrBlockQueries),
                    static_cast<unsigned long long>(es.pdrValidateQueries),
                    static_cast<unsigned long long>(es.pdrDropQueries),
                    static_cast<unsigned long long>(es.pdrPushQueries),
                    static_cast<unsigned long long>(es.pdrSideSolves),
                    static_cast<unsigned long long>(es.peakRssKb),
                    static_cast<unsigned long long>(es.solverLiveClauses),
                    static_cast<unsigned long long>(es.solverLearntClauses),
                    es.phaseASeconds, es.phaseBSeconds);
        const sva::FrontendStats& fs = report.frontend;
        std::printf("frontend: sources-parsed=%llu generated-reparses=%llu "
                    "generated-ast-reused=%llu\n",
                    static_cast<unsigned long long>(fs.sourcesParsed),
                    static_cast<unsigned long long>(fs.generatedTextReparses),
                    static_cast<unsigned long long>(fs.generatedAstReused));
        const auto stopCause = static_cast<formal::UnknownReason>(es.runStopCause);
        std::printf("robust: deadline-degraded=%llu run-stop-cause=%s\n",
                    static_cast<unsigned long long>(es.deadlineDegraded),
                    formal::unknownReasonName(stopCause));
        if (!es.cacheDegradedReason.empty())
            std::printf("cache: disabled (%s)\n", es.cacheDegradedReason.c_str());
    }
    if (args.has("--cache-stats")) {
        if (vopts.engine.cacheDir.empty()) {
            std::cout << "cache: disabled\n";
        } else {
            double rate = report.engineStats.cacheLookups == 0
                              ? 0.0
                              : 100.0 * static_cast<double>(report.engineStats.cacheHits) /
                                    static_cast<double>(report.engineStats.cacheLookups);
            std::printf("cache: dir=%s lookups=%llu hits=%llu (%.1f%%) seeded-lemmas=%llu "
                        "cached-results=%zu\n",
                        vopts.engine.cacheDir.c_str(),
                        static_cast<unsigned long long>(report.engineStats.cacheLookups),
                        static_cast<unsigned long long>(report.engineStats.cacheHits), rate,
                        static_cast<unsigned long long>(report.engineStats.cacheSeededLemmas),
                        report.numCached());
        }
    }
    if (args.has("--cache-compact") && vopts.engine.cacheDir.empty()) {
        std::printf("cache: compaction skipped (cache disabled for this run)\n");
    } else if (args.has("--cache-compact")) {
        // The run's ProofCache (inside verify) is closed by now, so the log
        // is safe to rewrite.
        cache::CompactResult cr = cache::ProofCache::compactLog(vopts.engine.cacheDir);
        if (cr.performed)
            std::printf("cache: compacted %llu -> %llu records (%llu corrupt dropped), "
                        "%llu -> %llu bytes\n",
                        static_cast<unsigned long long>(cr.recordsBefore),
                        static_cast<unsigned long long>(cr.recordsAfter),
                        static_cast<unsigned long long>(cr.droppedCorrupt),
                        static_cast<unsigned long long>(cr.bytesBefore),
                        static_cast<unsigned long long>(cr.bytesAfter));
        else
            std::printf("cache: compaction skipped (no writable log at %s)\n",
                        vopts.engine.cacheDir.c_str());
    }
    if (args.has("--trace-out")) {
        const std::string path = args.get("--trace-out", "trace.json");
        std::ofstream out(path);
        if (!out) {
            std::cerr << "error: cannot write trace to '" << path << "'\n";
        } else {
            obs::writeChromeTrace(recorder, out);
            std::cout << "trace: " << recorder.eventCount() << " events written to " << path
                      << " (load in Perfetto / chrome://tracing)\n";
        }
    }
    if (args.has("--events-out")) {
        const std::string path = args.get("--events-out", "events.jsonl");
        std::ofstream out(path);
        if (!out)
            std::cerr << "error: cannot write events to '" << path << "'\n";
        else
            obs::writeJsonl(recorder, out);
    }
    if (args.has("--stats-json"))
        obs::writeStatsJsonFile(args.get("--stats-json", "stats.json"), report);
    if (args.has("--profile"))
        std::cout << obs::renderProfile(obs::buildProfile(recorder), report);
    // Print the first failing trace, if any.
    if (const auto* failure = report.firstFailure()) {
        auto design = core::elaborateWithFT(sources, ft, vopts, diags);
        std::vector<std::string> signals;
        for (ir::NodeId input : design->inputs()) {
            const std::string& name = design->node(input).name;
            if (name.find('.') == std::string::npos && name.rfind("__", 0) != 0)
                signals.push_back(name);
        }
        std::cout << "\nFirst counterexample (" << failure->name << "):\n"
                  << formal::formatTrace(*design, failure->trace, signals);
    }
    // The conventional interrupted exit code, after the partial report and
    // every requested artifact flushed above.
    if (gStopRequested.load()) {
        std::cerr << "autosva: interrupted — partial report is sound but degraded\n";
        return 130;
    }
    return report.anyFailed() ? 1 : 0;
}

int cmdRun(const Args& args) {
    if (args.positional.empty()) usage();
    std::vector<std::string> sources;
    for (const auto& path : args.positional) sources.push_back(readFile(path));
    util::DiagEngine diags;
    core::FormalTestbench ft = generate(sources[0], args.positional[0], args, diags);
    std::cerr << diags.str();
    return runReport(sources, args.positional, ft, args);
}

int cmdSim(const Args& args) {
    if (args.positional.empty()) usage();
    std::string rtl = readFile(args.positional[0]);
    util::DiagEngine diags;
    core::FormalTestbench ft = generate(rtl, args.positional[0], args, diags);
    core::VerifyOptions simOpts;
    simOpts.sourcePaths = {args.positional[0]};
    auto design = core::elaborateWithFT({rtl}, ft, simOpts, diags, /*tieReset=*/false);

    sim::Simulator simulator(*design, sim::Simulator::XMode::FourState);
    simulator.enableChecking(true);
    simulator.enableTrace(args.has("--vcd"));
    // Seeds are raw 64-bit material, not a bounded count.
    uint64_t seed =
        args.has("--seed") ? parseUnsigned("--seed", args.get("--seed", "1"), 0, UINT64_MAX) : 1;
    std::mt19937_64 rng(seed);
    long cycles = args.getInt("--cycles", 1000);
    for (long i = 0; i < cycles; ++i) {
        simulator.randomizeInputs(rng);
        simulator.setInput("rst_ni", i == 0 ? 0 : 1);
        simulator.step();
    }
    std::cout << "Simulated " << cycles << " cycles: " << simulator.violations().size()
              << " assertion violations, " << simulator.coveredObligations().size()
              << " covers hit\n";
    for (const auto& v : simulator.violations())
        std::cout << "  violation @" << v.cycle << ": " << v.obligationName << "\n";
    if (args.has("--vcd")) {
        std::ofstream out(args.get("--vcd", "trace.vcd"));
        out << sim::traceToVcd(*design, simulator.trace(), ft.dutName);
        std::cout << "  VCD written to " << args.get("--vcd", "trace.vcd") << "\n";
    }
    return simulator.violations().empty() ? 0 : 1;
}

int cmdCache(const Args& args) {
    if (args.positional.empty() || args.positional[0] != "compact") usage();
    std::string dir = args.get("--cache-dir", cache::ProofCache::defaultDir());
    if (dir.empty()) {
        std::cerr << "error: no cache directory (set --cache-dir or $AUTOSVA_CACHE_DIR)\n";
        return 1;
    }
    cache::CompactResult cr = cache::ProofCache::compactLog(dir);
    if (!cr.performed) {
        std::cerr << "error: cannot compact proof-cache log in '" << dir
                  << "' (missing, foreign, or unwritable)\n";
        return 1;
    }
    std::printf("compacted %s: %llu -> %llu records (%llu corrupt dropped), "
                "%llu -> %llu bytes\n",
                dir.c_str(), static_cast<unsigned long long>(cr.recordsBefore),
                static_cast<unsigned long long>(cr.recordsAfter),
                static_cast<unsigned long long>(cr.droppedCorrupt),
                static_cast<unsigned long long>(cr.bytesBefore),
                static_cast<unsigned long long>(cr.bytesAfter));
    return 0;
}

int cmdList() {
    for (const auto& d : designs::allDesigns())
        std::cout << d.id << "  " << d.name << " — " << d.description << "\n      paper: "
                  << d.paperResult << (d.hasBugParam ? "  [BUG param]" : "") << "\n";
    return 0;
}

int cmdRunDesign(const Args& args);

/// `autosva profile <target>`: run with the profiler attached — sugar for
/// `run --profile` / `run-design --profile`. A target that names a file on
/// disk is verified as RTL; anything else is looked up in the design
/// registry.
int cmdProfile(Args args) {
    if (args.positional.empty()) usage();
    args.options["--profile"] = "1";
    if (fs::exists(args.positional[0])) return cmdRun(args);
    return cmdRunDesign(args);
}

int cmdRunDesign(const Args& args) {
    if (args.positional.empty()) usage();
    const auto& info = designs::design(args.positional[0]);
    util::DiagEngine diags;
    core::AutoSvaOptions genOpts;
    genOpts.sourcePath = info.name + ".sv";
    core::FormalTestbench ft = core::generateFT(info.rtl, genOpts, diags);
    Args runArgs = args;
    if (info.hasBugParam)
        runArgs.params.emplace_back("BUG", static_cast<uint64_t>(args.getInt("--bug", 0)));
    std::vector<std::string> sources = designs::rtlSources(info);
    std::vector<std::string> sourceNames = designs::rtlSourceNames(info);
    if (!info.extensionSva.empty()) {
        sources.push_back(info.extensionSva);
        sourceNames.push_back(info.name + "_extension.sva");
    }
    return runReport(sources, sourceNames, ft, runArgs);
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    std::string cmd = argv[1];
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    try {
        Args args = parseArgs(argc, argv, 2);
        // Deterministic fault injection, armed for the whole command so
        // generation-time sites (propgen-alloc) are covered too.
        robust::FaultPlan faultPlan;
        std::optional<robust::FaultScope> faultScope;
        const std::string faultSpec = args.get("--fault-inject", "");
        if (!faultSpec.empty()) {
            std::string err = robust::FaultPlan::parseSpec(faultSpec, faultPlan);
            if (!err.empty()) {
                std::cerr << "error: --fault-inject: " << err << "\n";
                return 2;
            }
            faultScope.emplace(faultPlan);
        }
        int rc = 2;
        if (cmd == "gen") rc = cmdGen(args);
        else if (cmd == "run") rc = cmdRun(args);
        else if (cmd == "sim") rc = cmdSim(args);
        else if (cmd == "list") rc = cmdList();
        else if (cmd == "cache") rc = cmdCache(args);
        else if (cmd == "run-design") rc = cmdRunDesign(args);
        else if (cmd == "profile") rc = cmdProfile(args);
        else usage();
        if (faultScope && !faultPlan.summary().empty())
            std::cerr << "fault-inject summary:\n" << faultPlan.summary();
        return rc;
    } catch (const util::FrontendError& err) {
        std::cerr << err.what() << "\n";
        return 1;
    } catch (const std::bad_alloc&) {
        // Graceful exhaustion (real or injected): a diagnostic and a clean
        // nonzero exit, never a crash or a partial write presented as
        // success.
        std::cerr << "autosva: out of memory — no report produced\n";
        return 1;
    }
}
