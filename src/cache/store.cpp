#include "cache/store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>
#include <vector>

#include "cache/bytes.hpp"
#include "obs/trace.hpp"
#include "robust/faultinject.hpp"

namespace autosva::cache {

namespace {

constexpr char kFileMagic[8] = {'A', 'S', 'V', 'A', 'P', 'C', '0', '1'};
constexpr uint32_t kRecordMagic = 0xA57AC4E1;
constexpr uint32_t kMaxPayload = 64u << 20; ///< Sanity bound per record.

} // namespace

ProofCache::ProofCache(std::string dir) : dir_(std::move(dir)) {
    if (dir_.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        degrade("cannot create cache directory '" + dir_ + "': " + ec.message());
        return;
    }
    logPath_ = (std::filesystem::path(dir_) / "proofs.bin").string();
    load();
    // An injected read fault models an unreadable log: serve nothing and
    // do not append to a file we claim we could not read.
    if (!degradedReason_.empty()) return;
    uintmax_t size = std::filesystem::file_size(logPath_, ec);
    if (ec) size = 0;
    if (size == 0) {
        out_.open(logPath_, std::ios::binary | std::ios::app);
        if (out_) {
            out_.write(kFileMagic, sizeof kFileMagic);
            out_.flush();
            persistent_ = out_.good();
        }
    } else if (headerTrusted_) {
        // Self-heal a torn tail (crash mid-append, racing writers): drop
        // the bytes past the last well-framed record so future appends are
        // readable again instead of piling up behind dead data.
        if (scanEnd_ < size) std::filesystem::resize_file(logPath_, scanEnd_, ec);
        if (!ec) {
            out_.open(logPath_, std::ios::binary | std::ios::app);
            persistent_ = static_cast<bool>(out_);
        }
    }
    // Untrusted header: some foreign file sits at our log path. Appending
    // records nothing could ever load (and truncating is not ours to do) —
    // run memory-only.
    if (!persistent_) {
        if (size > 0 && !headerTrusted_)
            degrade("foreign file at '" + logPath_ + "'; refusing to append");
        else
            degrade("cache log '" + logPath_ + "' is not writable");
    }
}

std::string ProofCache::defaultDir() {
    if (const char* env = std::getenv("AUTOSVA_CACHE_DIR"); env && *env) return env;
    if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        return (std::filesystem::path(xdg) / "autosva").string();
    if (const char* home = std::getenv("HOME"); home && *home)
        return (std::filesystem::path(home) / ".cache" / "autosva").string();
    return {};
}

void ProofCache::load() {
    if (robust::faultFire(robust::FaultSite::CacheRead)) {
        degrade("injected cache-read fault: log treated as unreadable");
        return;
    }
    std::ifstream in(logPath_, std::ios::binary | std::ios::ate);
    if (!in) return;
    std::streamoff size = in.tellg();
    if (size < 0) return;
    // Single sized read straight into the buffer the index views: the log
    // is reopened at every Engine construction, so avoid the stringstream
    // double-buffer.
    log_.assign(static_cast<size_t>(size), '\0');
    in.seekg(0);
    if (size > 0 && !in.read(log_.data(), size)) {
        std::string().swap(log_);
        return;
    }
    if (log_.size() < sizeof kFileMagic ||
        std::char_traits<char>::compare(log_.data(), kFileMagic, sizeof kFileMagic) != 0) {
        // Unrecognized or truncated header: some foreign file sits at our
        // path. Load nothing and leave headerTrusted_ false — the ctor
        // then runs memory-only rather than clobber or append to it.
        if (!log_.empty()) ++stats_.loadErrors;
        std::string().swap(log_);
        return;
    }
    headerTrusted_ = true;
    // Record: magic u32 | fpHi u64 | fpLo u64 | payloadLen u32 | payloadHash
    // u64 | payload. A framing anomaly ends the scan: without trustworthy
    // length fields there is no safe way to resync. scanEnd_ marks the last
    // well-framed boundary so the ctor can trim the dead tail.
    constexpr size_t kHeader = 4 + 8 + 8 + 4 + 8;
    size_t pos = sizeof kFileMagic;
    scanEnd_ = pos;
    while (pos + kHeader <= log_.size()) {
        const char* p = log_.data() + pos;
        if (readU32(p) != kRecordMagic) {
            ++stats_.loadErrors;
            return;
        }
        Fingerprint fp{readU64(p + 4), readU64(p + 12)};
        uint32_t len = readU32(p + 20);
        uint64_t payloadHash = readU64(p + 24);
        if (len > kMaxPayload || pos + kHeader + len > log_.size()) {
            ++stats_.loadErrors;
            return;
        }
        std::string_view payload(log_.data() + pos + kHeader, len);
        pos += kHeader + len;
        scanEnd_ = pos;
        if (hash64(payload.data(), payload.size()) != payloadHash) {
            ++stats_.loadErrors;
            continue; // Lengths were consistent: resume at the next record.
        }
        // Validated now, decoded on lookup: a payload that passes this
        // walk always decodes, so a hit can never turn into a miss.
        std::optional<uint64_t> structKey = ProofArtifact::validate(payload);
        if (!structKey) {
            ++stats_.loadErrors;
            continue;
        }
        ++stats_.entriesLoaded;
        byStruct_[*structKey] = fp; // Later records win, like index_.
        index_[fp] = payload;
    }
    if (pos != log_.size()) ++stats_.loadErrors; // Truncated trailing record.
}

// index_ and byStruct_ are immutable after construction, so lookups only
// need the lock for the stats counters — the (potentially large) artifact
// decode happens outside it, off other workers' probe path.

std::optional<ProofArtifact> ProofCache::lookup(
    const Fingerprint& fp, const std::function<bool(const ProofArtifact&)>& adopt) {
    auto it = index_.find(fp);
    std::optional<ProofArtifact> art;
    if (it != index_.end()) {
        art = ProofArtifact::deserializeVerdict(it->second);
        if (art && adopt && !adopt(*art)) art.reset();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    if (it != index_.end()) ++stats_.decoded;
    if (art) ++stats_.hits;
    return art;
}

std::vector<NamedCube> ProofCache::storedLemmas(const Fingerprint& fp) {
    auto it = index_.find(fp);
    if (it == index_.end()) return {};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.decoded;
    }
    std::optional<ProofArtifact> art = ProofArtifact::deserialize(it->second);
    return art ? std::move(art->lemmas) : std::vector<NamedCube>{};
}

std::optional<ProofArtifact> ProofCache::lookupNear(uint64_t structKey) {
    auto it = byStruct_.find(structKey);
    auto entry = it == byStruct_.end() ? index_.end() : index_.find(it->second);
    if (entry == index_.end()) return std::nullopt;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.nearHits;
        ++stats_.decoded;
    }
    return ProofArtifact::deserialize(entry->second);
}

void ProofCache::store(const Fingerprint& fp, const ProofArtifact& artifact) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Skip rewriting what the log already has (same key => same content
        // by construction) and what this run already appended.
        if (index_.count(fp) != 0 || !storedThisRun_.emplace(fp, 0).second) return;
        ++stats_.stores;
        if (rec_)
            rec_->instant("cache", "store", -1, {{"lemmas", artifact.lemmas.size()}});
        if (!persistent_) return;
    }
    // Serialize outside the lock: workers must not queue their lookups
    // behind another worker's (potentially large) trace encoding.
    std::string payload = artifact.serialize();
    // Never append what load() would treat as a framing anomaly — an
    // oversized record would get the log truncated at its offset on the
    // next open, taking every later record with it.
    if (payload.size() > kMaxPayload) return;
    std::string record;
    record.reserve(32 + payload.size());
    putU32(record, kRecordMagic);
    putU64(record, fp.hi);
    putU64(record, fp.lo);
    putU32(record, static_cast<uint32_t>(payload.size()));
    putU64(record, hash64(payload.data(), payload.size()));
    record += payload;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!persistent_) return;
    if (robust::faultFire(robust::FaultSite::CacheWrite)) {
        persistent_ = false;
        degrade("injected cache-write fault: append failed (disk full)");
        return;
    }
    // One buffered write per record keeps concurrent-process interleaving
    // unlikely (not impossible — the checksum scan degrades gracefully).
    out_.write(record.data(), static_cast<std::streamsize>(record.size()));
    out_.flush();
    if (!out_) {
        persistent_ = false;
        degrade("cache append to '" + logPath_ + "' failed; persistence disabled");
    }
}

CompactResult ProofCache::compactLog(const std::string& dir) {
    CompactResult res;
    if (dir.empty()) return res;
    std::error_code ec;
    // Only compact a log that already exists: constructing a ProofCache
    // would fabricate the directory and an empty log as a side effect, and
    // a typo'd --cache-dir must surface as "nothing to compact", not
    // silently succeed.
    const std::string logPath = (std::filesystem::path(dir) / "proofs.bin").string();
    if (!std::filesystem::exists(logPath, ec) || ec) return res;
    // Reuse the loader: the constructor validates the log into the
    // newest-per-key index, drops corrupt records, and trims any torn tail.
    // A foreign file at the log path — any pre-existing bytes that do not
    // start with our magic — leaves headerTrusted_ false and must not be
    // rewritten (it is not ours to compact).
    ProofCache cache(dir);
    cache.out_.close(); // The old generation is about to be replaced.
    res.bytesBefore = std::filesystem::file_size(cache.logPath_, ec);
    if (ec) res.bytesBefore = 0;
    if (!cache.headerTrusted_) return res;
    res.recordsBefore = cache.stats_.entriesLoaded;
    res.droppedCorrupt = cache.stats_.loadErrors;

    // Deterministic output order: sort the survivors by fingerprint.
    std::vector<std::pair<Fingerprint, std::string_view>> entries(cache.index_.begin(),
                                                                  cache.index_.end());
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
        return std::pair(a.first.hi, a.first.lo) < std::pair(b.first.hi, b.first.lo);
    });

    // Stage the new generation, then atomically promote it. Any failure
    // leaves the old log untouched.
    const std::string staging = cache.logPath_ + ".compacting";
    {
        std::ofstream out(staging, std::ios::binary | std::ios::trunc);
        if (!out) return res;
        out.write(kFileMagic, sizeof kFileMagic);
        for (const auto& [fp, stored] : entries) {
            // Re-encoded, not copied: the new generation holds the
            // canonical encoding of what the old one's records decode to.
            std::optional<ProofArtifact> art = ProofArtifact::deserialize(stored);
            ++res.decoded;
            if (!art) continue;
            std::string payload = art->serialize();
            if (payload.size() > kMaxPayload) continue; // Never write unloadable framing.
            std::string record;
            record.reserve(32 + payload.size());
            putU32(record, kRecordMagic);
            putU64(record, fp.hi);
            putU64(record, fp.lo);
            putU32(record, static_cast<uint32_t>(payload.size()));
            putU64(record, hash64(payload.data(), payload.size()));
            record += payload;
            out.write(record.data(), static_cast<std::streamsize>(record.size()));
            ++res.recordsAfter;
        }
        out.flush();
        if (!out.good()) {
            std::filesystem::remove(staging, ec);
            res.recordsAfter = 0;
            return res;
        }
    }
    std::filesystem::rename(staging, cache.logPath_, ec);
    if (ec) {
        std::filesystem::remove(staging, ec);
        res.recordsAfter = 0;
        return res;
    }
    res.bytesAfter = std::filesystem::file_size(cache.logPath_, ec);
    if (ec) res.bytesAfter = 0;
    res.performed = true;
    return res;
}

// Called from the constructor (single-threaded) or with mutex_ held
// (store), so it must not take the lock itself.
void ProofCache::degrade(const std::string& reason) {
    if (!degradedReason_.empty()) return;
    degradedReason_ = reason;
    if (rec_) rec_->instant("robust", "cache-degraded", -1, {{"entries", index_.size()}});
    std::fprintf(stderr, "autosva: warning: proof cache degraded: %s (run continues %s)\n",
                 reason.c_str(),
                 index_.empty() ? "without the cache" : "on the loaded snapshot only");
}

std::string ProofCache::degradedReason() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return degradedReason_;
}

void ProofCache::noteSeeded(uint64_t cubes) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.seededLemmas += cubes;
}

void ProofCache::attachRecorder(obs::Recorder* rec) {
    rec_ = rec;
    if (!rec_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    rec_->instant("cache", "open", -1,
                  {{"entries_loaded", stats_.entriesLoaded},
                   {"load_errors", stats_.loadErrors},
                   {"persistent", persistent_ ? uint64_t{1} : uint64_t{0}}});
}

CacheStats ProofCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace autosva::cache
