// Persistent proof store: the two-tier home of cached artifacts.
//
// On open, the on-disk log (`<dir>/proofs.bin`) is read into one retained
// buffer and every record in it is validated: its framing, its checksum,
// and a walk of its payload through the artifact decoder that builds
// nothing. The valid records form an index into that buffer (fingerprint
// -> newest valid record, struct key -> fingerprint); an artifact is
// decoded from the buffer only when a lookup (or a compaction) asks for
// it, and an exact hit's lemmas only when storedLemmas asks for them.
// That open-time snapshot serves every lookup of the run, so results
// cannot depend on which worker recorded what first. Stores append a
// checksummed record to the log (last record for a fingerprint wins on the
// next load) and never block correctness: any I/O failure just downgrades
// the cache to memory-only, and any malformed or truncated record is
// dropped at open. The store is internally synchronized; workers call it
// concurrently.
#pragma once

#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/proof_artifact.hpp"

namespace autosva::obs {
class Recorder;
}

namespace autosva::cache {

/// Outcome of one log compaction (ProofCache::compactLog).
struct CompactResult {
    bool performed = false;     ///< False: no log, foreign file, or I/O failure.
    uint64_t recordsBefore = 0; ///< Valid records in the old log (dupes included).
    uint64_t recordsAfter = 0;  ///< Records in the compacted log (newest per key).
    uint64_t droppedCorrupt = 0; ///< Corrupt/truncated records discarded.
    uint64_t decoded = 0;       ///< Artifacts decoded to re-encode the survivors.
    uint64_t bytesBefore = 0;
    uint64_t bytesAfter = 0;
};

struct CacheStats {
    uint64_t lookups = 0;     ///< Exact-fingerprint probes.
    uint64_t hits = 0;        ///< Probes answered from the store and adopted.
    uint64_t stores = 0;      ///< Artifacts recorded this run.
    uint64_t nearHits = 0;    ///< Near-miss probes that yielded lemma seeds.
    uint64_t seededLemmas = 0; ///< Candidate lemma cubes handed to PDR.
    uint64_t entriesLoaded = 0; ///< Valid records read at open.
    uint64_t loadErrors = 0;  ///< Corrupt/truncated records skipped at open.
    uint64_t decoded = 0;     ///< Records decoded from the log (hits, stored lemmas).

    [[nodiscard]] uint64_t misses() const { return lookups - hits; }
};

class ProofCache {
public:
    /// Opens (creating the directory if needed) and loads the log. A
    /// directory that cannot be created or written leaves the cache
    /// memory-only for this run; it never throws.
    explicit ProofCache(std::string dir);

    /// Default on-disk location: $AUTOSVA_CACHE_DIR, else
    /// $XDG_CACHE_HOME/autosva, else $HOME/.cache/autosva, else "" (no
    /// resolvable home: caller should treat as disabled).
    [[nodiscard]] static std::string defaultDir();

    [[nodiscard]] const std::string& dir() const { return dir_; }
    /// False when the log could not be opened for appending (memory-only).
    [[nodiscard]] bool persistent() const { return persistent_; }

    /// Why persistence was lost (unwritable directory, foreign log file,
    /// failed append, injected fault) — empty while the cache is healthy.
    /// Every degradation prints one stderr warning, process-wide behaviour
    /// staying: serve what was loaded, stop persisting, never throw.
    [[nodiscard]] std::string degradedReason() const;

    /// Exact lookup against the open-time snapshot. A hit decodes its
    /// verdict and trace; its lemmas stay undecoded (storedLemmas reads
    /// them). `adopt`, when given, vets the decoded artifact for the
    /// caller: a record it rejects is counted and returned as a miss.
    /// Entries stored during this run are deliberately not visible, so
    /// intra-run scheduling order cannot leak into results.
    [[nodiscard]] std::optional<ProofArtifact> lookup(
        const Fingerprint& fp, const std::function<bool(const ProofArtifact&)>& adopt = {});

    /// The lemmas of the open-time record under `fp` (empty when there is
    /// none): the invariant of a proof an exact hit served, decoded only
    /// when a caller needs it. Not a lookup: no hit or miss is counted.
    [[nodiscard]] std::vector<NamedCube> storedLemmas(const Fingerprint& fp);

    /// Near-miss lookup by obligation identity: returns the artifact of
    /// the same property from a prior run whose exact fingerprint no
    /// longer matches (i.e. the RTL changed inside its cone). Source of
    /// candidate lemmas only — callers must re-validate anything they use.
    [[nodiscard]] std::optional<ProofArtifact> lookupNear(uint64_t structKey);

    void store(const Fingerprint& fp, const ProofArtifact& artifact);

    /// Compacts the append-only log at `<dir>/proofs.bin`: keeps the newest
    /// record per fingerprint, drops corrupt/truncated records, and writes
    /// the survivors (sorted by fingerprint, so the output is
    /// deterministic) as a fresh log generation that atomically replaces
    /// the old file. Crash-safe: the new generation is staged at
    /// `proofs.bin.compacting` and promoted with a rename, so a crash at
    /// any point leaves either the intact old log or the complete new one
    /// — a stale staging file from a dead compactor is simply overwritten.
    /// Callers must not hold the same directory open for appending (their
    /// stream would keep feeding the unlinked old generation).
    [[nodiscard]] static CompactResult compactLog(const std::string& dir);

    void noteSeeded(uint64_t cubes);

    /// Attaches a tracing recorder for the rest of this cache's lifetime
    /// (src/obs/). Emits one "cache/open" snapshot instant immediately and
    /// a "cache/store" instant per artifact recorded; lookup instants are
    /// the scheduler's job (it knows the obligation index). Observability
    /// only — never affects what is stored or served.
    void attachRecorder(obs::Recorder* rec);

    [[nodiscard]] CacheStats stats() const;

private:
    void load();
    /// Records the first degradation reason and emits its one-shot stderr
    /// warning. Idempotent; later reasons are dropped (the first failure
    /// is the diagnosis — everything after is fallout).
    void degrade(const std::string& reason);

    mutable std::mutex mutex_;
    std::string dir_;
    std::string logPath_;
    bool persistent_ = false;
    std::string degradedReason_; ///< First degradation; empty = healthy.
    bool headerTrusted_ = false; ///< Log file carries our magic.
    size_t scanEnd_ = 0;         ///< Last well-framed byte offset at load.
    std::ofstream out_;
    std::string log_; ///< The log's bytes as read at open; index_ views into it.
    /// The open-time snapshot: each fingerprint's newest valid payload.
    /// Immutable after construction, so lookups read it without the lock.
    std::unordered_map<Fingerprint, std::string_view, FingerprintHash> index_;
    std::unordered_map<uint64_t, Fingerprint> byStruct_;
    std::unordered_map<Fingerprint, char, FingerprintHash> storedThisRun_;
    CacheStats stats_;
    obs::Recorder* rec_ = nullptr;
};

} // namespace autosva::cache
