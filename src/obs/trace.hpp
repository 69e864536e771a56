// Structured tracing layer: the span/event recorder the engine threads
// through every layer that already has counters (scheduler phases and
// lemma-chain links, the BMC and PDR stages, the cex replay,
// cache lookups and deadline firings), plus the exporters that turn one
// run's events into a Chrome trace-event JSON (Perfetto /
// chrome://tracing), a JSONL event log, and the `autosva profile` summary
// (profile.hpp).
//
// Contract — verdict inertness: the recorder observes, never steers.
// Canonical reports are byte-identical with tracing on or off at any
// worker count; timestamps live only in the trace, never in canonical().
// Call sites guard on a null Recorder*, so a disabled recorder costs one
// pointer test per site and no allocation anywhere.
//
// Threading: each worker thread appends to its own buffer (acquired once
// per thread per recorder under the registry mutex, then lock-free), so
// the hot path takes no locks and writes no shared cache lines. merged()
// concatenates the buffers and stable-sorts by timestamp — call it only
// after the parallel phases joined (the scheduler's run() has returned).
//
// Track identity: events carry the "lane" of the emitting thread — the
// worker index of the enclosing parallelFor body (set via LaneScope), or
// kSchedulerLane for the orchestrating thread between phases. Lanes map
// 1:1 to Chrome trace tracks. parallelFor worker indices are unique among
// concurrently running threads and phases are sequential, so per-lane
// span nesting is well-formed even though each phase spawns fresh threads.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace autosva::obs {

/// Lane of the orchestrating (non-worker) thread; rendered as the
/// "scheduler" track. Worker lanes are 0..N-1 ("worker-N" tracks).
constexpr int16_t kSchedulerLane = -1;

/// One key/value annotation on an event. Keys must be string literals
/// (static storage duration) — the recorder stores the pointer only.
struct TraceArg {
    const char* key = nullptr;
    uint64_t val = 0;
};

/// Args one event carries: the `pdr` span's End has 14.
constexpr size_t kMaxTraceArgs = 16;

/// One recorded event. `cat` and `name` must be string literals, like
/// TraceArg keys; `ob` is the obligation declaration index the event is
/// attributed to (-1 = run-level, not obligation-scoped).
struct TraceEvent {
    enum class Kind : uint8_t {
        Begin,   ///< Span open (paired with the next same-lane End).
        End,     ///< Span close; carries the span's summary args.
        Instant, ///< Point event (cache hit, near-miss seed, deadline, ...).
        Counter, ///< Attribution-only numbers (no duration semantics).
    };
    Kind kind = Kind::Instant;
    uint8_t numArgs = 0;
    int16_t lane = kSchedulerLane;
    const char* cat = "";
    const char* name = "";
    int64_t ob = -1;
    int64_t ts = 0; ///< Nanoseconds since the recorder's epoch.
    std::array<TraceArg, kMaxTraceArgs> args{};
};

/// Establishes the worker lane for the current thread for the lifetime of
/// the scope. Every parallelFor body opens one with its worker index;
/// everything recorded outside any scope lands on kSchedulerLane.
class LaneScope {
public:
    explicit LaneScope(int lane);
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

    [[nodiscard]] static int16_t current();

private:
    int16_t prev_;
};

/// The per-run event recorder. Thread-safe; see the file comment for the
/// buffering scheme. One Recorder instance covers exactly one engine run.
class Recorder {
public:
    Recorder();
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /// Declaration-ordered obligation names, for rendering `ob` indices.
    /// Call single-threaded before the parallel phases start.
    void setObligationNames(std::vector<std::string> names);
    [[nodiscard]] const std::vector<std::string>& obligationNames() const {
        return obNames_;
    }
    /// Rendered name of an obligation index ("-" for run-level events).
    [[nodiscard]] std::string obName(int64_t ob) const;

    /// Nanoseconds since this recorder's construction (steady clock).
    [[nodiscard]] int64_t now() const;

    /// Appends one event to the calling thread's buffer (lock-free after
    /// the thread's first event). The lane is read from LaneScope.
    void record(TraceEvent::Kind kind, const char* cat, const char* name, int64_t ob,
                std::initializer_list<TraceArg> args = {});

    void instant(const char* cat, const char* name, int64_t ob,
                 std::initializer_list<TraceArg> args = {}) {
        record(TraceEvent::Kind::Instant, cat, name, ob, args);
    }
    /// Attribution numbers with no span of their own (e.g. the per-job
    /// query counts of one batched-BMC sweep).
    void counter(const char* cat, const char* name, int64_t ob,
                 std::initializer_list<TraceArg> args = {}) {
        record(TraceEvent::Kind::Counter, cat, name, ob, args);
    }

    /// All recorded events, concatenated across threads and stable-sorted
    /// by timestamp (ties keep buffer order). Only valid after every
    /// recording thread has joined.
    [[nodiscard]] std::vector<TraceEvent> merged() const;

    [[nodiscard]] size_t eventCount() const;

private:
    friend class Span; // End events carry pre-accumulated args (see Span::end).

    struct Buffer {
        std::vector<TraceEvent> events;
    };

    [[nodiscard]] Buffer& localBuffer();

    uint64_t id_; ///< Globally unique; guards thread-local slots against address reuse.
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex registry_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::vector<std::string> obNames_;
};

/// RAII span: records Begin at construction, End at destruction. The End
/// event carries every arg() added in between (summary values measured
/// during the span: queries, frames, cubes, ...). A null recorder makes
/// the whole object a no-op.
class Span {
public:
    Span(Recorder* rec, const char* cat, const char* name, int64_t ob = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Attaches a summary arg to the End event. Silently drops args past
    /// the TraceEvent capacity (kMaxTraceArgs).
    void arg(const char* key, uint64_t val);

    /// Emits the End event now instead of at destruction — for spans whose
    /// extent does not coincide with a C++ scope (the scheduler's phases).
    /// Idempotent; arg() after end() is dropped.
    void end();

private:
    Recorder* rec_;
    const char* cat_;
    const char* name_;
    int64_t ob_;
    uint8_t numArgs_ = 0;
    std::array<TraceArg, kMaxTraceArgs> args_{};
};

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Chrome trace-event JSON (the object form, with thread_name metadata per
/// lane): loadable in Perfetto / chrome://tracing. One pid; tid = lane+1,
/// so the scheduler lane is tid 0 and worker w is tid w+1.
void writeChromeTrace(const Recorder& rec, std::ostream& out);

/// Line-delimited JSON: one event object per line, in merged order.
void writeJsonl(const Recorder& rec, std::ostream& out);

/// Structural check used by tests and asserted in CI: timestamps are
/// non-negative and non-decreasing per lane, and every lane's Begin/End
/// events nest properly (matching names, no close without an open, no
/// span left open). Returns "" when well-formed, else a diagnostic.
[[nodiscard]] std::string validateTrace(const std::vector<TraceEvent>& merged);

} // namespace autosva::obs
