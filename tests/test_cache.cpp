// Proof-cache subsystem tests: fingerprint stability under RTL edits
// outside/inside an obligation's cone of influence, artifact and store
// round-trips, corruption fallback (a damaged cache must never change a
// verdict or crash the engine), warm-vs-cold verdict identity, and
// near-miss invariant seeding soundness.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <unistd.h>

#include "cache/bytes.hpp"
#include "cache/fingerprint.hpp"
#include "cache/proof_artifact.hpp"
#include "cache/store.hpp"
#include "core/autosva.hpp"
#include "designs/designs.hpp"
#include "formal/scheduler.hpp"
#include "obs/trace.hpp"
#include "rtlir/elaborate.hpp"
#include "sva/report.hpp"

namespace {

using namespace autosva;
using formal::AigLit;
using formal::EngineOptions;
using formal::Status;

namespace fs = std::filesystem;

/// Unique per-test temp directory, removed on destruction.
struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("autosva_test_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    [[nodiscard]] std::string str() const { return path.string(); }
    [[nodiscard]] fs::path logPath() const { return path / "proofs.bin"; }
};

std::unique_ptr<ir::Design> elab(const std::string& src, const std::string& top) {
    util::DiagEngine diags;
    ir::ElabOptions opts;
    opts.tieOffs["rst_ni"] = 1;
    return ir::elaborateSources({src}, top, diags, opts);
}

/// Per-obligation fingerprints the way the scheduler derives them for
/// phase-A jobs (bad == pdrBad, base AIG, all constraints as roots).
std::map<std::string, cache::Fingerprint> obligationFingerprints(const ir::Design& design) {
    formal::BitBlast bb = formal::bitblast(design);
    std::vector<AigLit> constraints;
    for (const auto& ob : design.obligations())
        if (!ob.xprop && ob.kind == ir::Obligation::Kind::Constraint)
            constraints.push_back(bb.lit(ob.net));
    EngineOptions opts;
    std::map<std::string, cache::Fingerprint> fps;
    for (const auto& ob : design.obligations()) {
        if (ob.xprop) continue;
        if (ob.kind != ir::Obligation::Kind::SafetyBad && ob.kind != ir::Obligation::Kind::Cover)
            continue;
        AigLit bad = bb.lit(ob.net);
        std::vector<AigLit> roots{bad, bad, formal::kAigFalse};
        roots.insert(roots.end(), constraints.begin(), constraints.end());
        uint64_t digest = cache::optionsDigest(opts, cache::Stage::FullPipeline,
                                               ob.kind == ir::Obligation::Kind::Cover, ob.kind);
        fps[ob.name] = cache::fingerprintCone(bb.aig, roots, digest);
    }
    return fps;
}

/// Full design+FT elaboration of a registered paper design.
std::unique_ptr<ir::Design> elabDesignWithFT(const std::string& rtl) {
    util::DiagEngine diags;
    core::FormalTestbench ft = core::generateFT(rtl, {}, diags);
    return core::elaborateWithFT({rtl}, ft, {}, diags, /*tieReset=*/true);
}

sva::VerificationReport runMixed(const std::string& rtl, const std::string& cacheDir,
                                 int jobs = 1) {
    util::DiagEngine diags;
    core::VerifyOptions vopts;
    vopts.engine.jobs = jobs;
    vopts.engine.cacheDir = cacheDir;
    core::FormalTestbench ft = core::generateFT(rtl, {}, diags);
    auto report = core::verify({rtl}, ft, vopts, diags);
    return report;
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(Fingerprint, StableAcrossRebuildsOfArianeTlb) {
    const auto& info = designs::design("ariane_tlb");
    auto a = obligationFingerprints(*elabDesignWithFT(info.rtl));
    auto b = obligationFingerprints(*elabDesignWithFT(info.rtl));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Fingerprint, EditOutsideConeDoesNotMoveNocBufferKeys) {
    const auto& info = designs::design("noc_buffer");
    // Insert an unused free-running counter right before `endmodule`: new
    // state, new nodes, shifted AIG variable numbering — but nothing feeds
    // any existing obligation, so every fingerprint must stay put.
    std::string edited = info.rtl;
    size_t pos = edited.rfind("endmodule");
    ASSERT_NE(pos, std::string::npos);
    edited.insert(pos, R"(
  reg [3:0] pad_counter_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) pad_counter_q <= 4'd0;
    else pad_counter_q <= pad_counter_q + 4'd1;
  end
)");
    auto before = obligationFingerprints(*elabDesignWithFT(info.rtl));
    auto after = obligationFingerprints(*elabDesignWithFT(edited));
    ASSERT_FALSE(before.empty());
    EXPECT_EQ(before, after);
}

TEST(Fingerprint, EditInsideConeMovesOnlyThatKey) {
    const char* kTemplate = R"(
module m (input wire clk_i, input wire rst_ni);
  reg [3:0] a;
  reg [3:0] b;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      a <= 4'd0;
      b <= 4'd0;
    end else begin
      a <= a + 4'd%c;
      b <= b + 4'd1;
    end
  end
  as__a_small: assert property (a != 4'd15);
  as__b_small: assert property (b != 4'd15);
endmodule)";
    char src1[1024], src2[1024];
    std::snprintf(src1, sizeof src1, kTemplate, '1');
    std::snprintf(src2, sizeof src2, kTemplate, '2');
    auto fp1 = obligationFingerprints(*elab(src1, "m"));
    auto fp2 = obligationFingerprints(*elab(src2, "m"));
    ASSERT_EQ(fp1.count("as__a_small"), 1u);
    EXPECT_NE(fp1.at("as__a_small"), fp2.at("as__a_small")); // Edit is in a's cone.
    EXPECT_EQ(fp1.at("as__b_small"), fp2.at("as__b_small")); // b's cone untouched.
}

TEST(Fingerprint, OptionsThatAffectVerdictsMoveTheKey) {
    const auto& info = designs::design("noc_buffer");
    auto design = elabDesignWithFT(info.rtl);
    formal::BitBlast bb = formal::bitblast(*design);
    const auto& ob = design->obligations().front();
    AigLit bad = bb.lit(ob.net);
    std::vector<AigLit> roots{bad, bad, formal::kAigFalse};
    EngineOptions deep;
    EngineOptions shallow;
    shallow.bmcDepth = 5;
    auto digest = [&](const EngineOptions& o) {
        return cache::optionsDigest(o, cache::Stage::FullPipeline, false, ob.kind);
    };
    EXPECT_NE(cache::fingerprintCone(bb.aig, roots, digest(deep)),
              cache::fingerprintCone(bb.aig, roots, digest(shallow)));
    // Worker count must NOT move the key (results are jobs-invariant).
    EngineOptions parallel;
    parallel.jobs = 8;
    EXPECT_EQ(cache::fingerprintCone(bb.aig, roots, digest(deep)),
              cache::fingerprintCone(bb.aig, roots, digest(parallel)));
}

// ---------------------------------------------------------------------------
// Artifact serialization
// ---------------------------------------------------------------------------

cache::ProofArtifact sampleArtifact() {
    cache::ProofArtifact art;
    art.structKey = 0xfeedface12345678ULL;
    art.status = Status::Failed;
    art.depth = 7;
    art.trace.initialRegs = {{"a", 3}, {"b", 0}};
    art.trace.inputs = {{{"in", 1}}, {{"in", 0}}};
    art.trace.loopStart = 1;
    art.lemmas.push_back({{{"a[0]", true}, {"b[1]", false}}});
    art.lemmas.push_back({{{"q[2]", true}}});
    return art;
}

TEST(ProofArtifact, RoundTrips) {
    cache::ProofArtifact art = sampleArtifact();
    auto back = cache::ProofArtifact::deserialize(art.serialize());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->structKey, art.structKey);
    EXPECT_EQ(back->status, art.status);
    EXPECT_EQ(back->depth, art.depth);
    EXPECT_EQ(back->trace.initialRegs, art.trace.initialRegs);
    EXPECT_EQ(back->trace.inputs, art.trace.inputs);
    EXPECT_EQ(back->trace.loopStart, art.trace.loopStart);
    ASSERT_EQ(back->lemmas.size(), 2u);
    EXPECT_EQ(back->lemmas[0].lits, art.lemmas[0].lits);
    EXPECT_EQ(back->lemmas[1].lits, art.lemmas[1].lits);
}

TEST(ProofArtifact, RejectsTruncatedAndGarbledBytes) {
    std::string bytes = sampleArtifact().serialize();
    for (size_t cut : {size_t{0}, size_t{1}, bytes.size() / 2, bytes.size() - 1})
        EXPECT_FALSE(cache::ProofArtifact::deserialize(bytes.substr(0, cut)).has_value())
            << "cut at " << cut;
    // An invalid status enum value must be rejected too.
    std::string bad = bytes;
    bad[8] = 0x7f;
    EXPECT_FALSE(cache::ProofArtifact::deserialize(bad).has_value());
    // Trailing junk means the record does not parse cleanly.
    EXPECT_FALSE(cache::ProofArtifact::deserialize(bytes + "x").has_value());
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

TEST(ProofStore, PersistsAcrossReopenAndSupersedes) {
    TempDir dir("store");
    cache::Fingerprint fp{1, 2};
    {
        cache::ProofCache store(dir.str());
        EXPECT_TRUE(store.persistent());
        EXPECT_FALSE(store.lookup(fp).has_value()); // Miss on empty store.
        store.store(fp, sampleArtifact());
        // Same-run lookups still miss: snapshot semantics.
        EXPECT_FALSE(store.lookup(fp).has_value());
        EXPECT_EQ(store.stats().stores, 1u);
    }
    {
        cache::ProofCache store(dir.str());
        auto hit = store.lookup(fp);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->depth, 7);
        EXPECT_EQ(store.stats().entriesLoaded, 1u);
        // Supersede with a new artifact under the same key... requires a
        // fresh run view, so write under a different fingerprint too.
        cache::ProofArtifact art2 = sampleArtifact();
        art2.depth = 9;
        store.store(cache::Fingerprint{3, 4}, art2);
    }
    {
        cache::ProofCache store(dir.str());
        EXPECT_EQ(store.stats().entriesLoaded, 2u);
        ASSERT_TRUE(store.lookup(cache::Fingerprint{3, 4}).has_value());
        EXPECT_EQ(store.lookup(cache::Fingerprint{3, 4})->depth, 9);
    }
}

TEST(ProofStore, NearMissLookupFindsByStructKey) {
    TempDir dir("near");
    cache::ProofArtifact art = sampleArtifact();
    {
        cache::ProofCache store(dir.str());
        store.store(cache::Fingerprint{10, 11}, art);
    }
    cache::ProofCache store(dir.str());
    EXPECT_FALSE(store.lookup(cache::Fingerprint{99, 99}).has_value());
    auto near = store.lookupNear(art.structKey);
    ASSERT_TRUE(near.has_value());
    EXPECT_EQ(near->lemmas.size(), 2u);
    EXPECT_FALSE(store.lookupNear(0xdeadULL).has_value());
}

TEST(ProofStore, GarbledRecordIsSkippedOthersSurvive) {
    TempDir dir("garble");
    {
        cache::ProofCache store(dir.str());
        store.store(cache::Fingerprint{1, 1}, sampleArtifact());
        store.store(cache::Fingerprint{2, 2}, sampleArtifact());
    }
    // Flip one byte inside the first record's payload: its checksum fails,
    // but the length fields are intact, so the second record still loads.
    {
        std::fstream f(dir.logPath(), std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8 + 32 + 4); // File magic + record header + a few payload bytes.
        f.put(static_cast<char>(0x5a));
    }
    cache::ProofCache store(dir.str());
    EXPECT_EQ(store.stats().loadErrors, 1u);
    EXPECT_EQ(store.stats().entriesLoaded, 1u);
    EXPECT_FALSE(store.lookup(cache::Fingerprint{1, 1}).has_value());
    EXPECT_TRUE(store.lookup(cache::Fingerprint{2, 2}).has_value());
}

TEST(ProofStore, TruncatedTailAndForeignFileAreIgnored) {
    TempDir dir("trunc");
    {
        cache::ProofCache store(dir.str());
        store.store(cache::Fingerprint{1, 1}, sampleArtifact());
        store.store(cache::Fingerprint{2, 2}, sampleArtifact());
    }
    auto size = fs::file_size(dir.logPath());
    fs::resize_file(dir.logPath(), size - 5);
    {
        cache::ProofCache store(dir.str());
        EXPECT_EQ(store.stats().entriesLoaded, 1u); // Prefix survives.
        EXPECT_GE(store.stats().loadErrors, 1u);
        EXPECT_TRUE(store.lookup(cache::Fingerprint{1, 1}).has_value());
        // The torn tail was trimmed, so new appends land readable again.
        EXPECT_TRUE(store.persistent());
        store.store(cache::Fingerprint{5, 5}, sampleArtifact());
    }
    {
        cache::ProofCache store(dir.str());
        EXPECT_EQ(store.stats().entriesLoaded, 2u); // Healed prefix + new record.
        EXPECT_TRUE(store.lookup(cache::Fingerprint{5, 5}).has_value());
    }
    // A file that is not a proof log at all: loads nothing, crashes never,
    // and is neither clobbered nor appended to (memory-only for this run).
    std::ofstream(dir.logPath(), std::ios::trunc) << "this is not a cache";
    cache::ProofCache store(dir.str());
    EXPECT_EQ(store.stats().entriesLoaded, 0u);
    EXPECT_FALSE(store.persistent());
    EXPECT_FALSE(store.lookup(cache::Fingerprint{1, 1}).has_value());
    store.store(cache::Fingerprint{6, 6}, sampleArtifact()); // No-op on disk.
    EXPECT_EQ(fs::file_size(dir.logPath()), 19u); // Foreign bytes untouched.
}

TEST(ProofStore, CompactKeepsNewestRecordPerKey) {
    TempDir dir("compact");
    // Two writers racing on the same (initially empty) log: both miss in
    // their open-time snapshot, so both append under the same fingerprint —
    // the only way duplicate keys legitimately arise.
    {
        cache::ProofCache a(dir.str());
        cache::ProofCache b(dir.str());
        cache::ProofArtifact stale = sampleArtifact();
        stale.depth = 7;
        cache::ProofArtifact fresh = sampleArtifact();
        fresh.depth = 9;
        a.store(cache::Fingerprint{1, 1}, stale);
        b.store(cache::Fingerprint{1, 1}, fresh); // Appended later: must win.
        a.store(cache::Fingerprint{2, 2}, sampleArtifact());
        b.store(cache::Fingerprint{3, 3}, sampleArtifact());
    }
    const auto sizeBefore = fs::file_size(dir.logPath());
    cache::CompactResult cr = cache::ProofCache::compactLog(dir.str());
    EXPECT_TRUE(cr.performed);
    EXPECT_EQ(cr.recordsBefore, 4u);
    EXPECT_EQ(cr.recordsAfter, 3u);
    EXPECT_EQ(cr.droppedCorrupt, 0u);
    EXPECT_EQ(cr.bytesBefore, sizeBefore);
    EXPECT_LT(cr.bytesAfter, cr.bytesBefore);
    EXPECT_EQ(cr.bytesAfter, fs::file_size(dir.logPath()));

    cache::ProofCache reloaded(dir.str());
    EXPECT_EQ(reloaded.stats().entriesLoaded, 3u);
    EXPECT_EQ(reloaded.stats().loadErrors, 0u);
    auto art = reloaded.lookup(cache::Fingerprint{1, 1});
    ASSERT_TRUE(art.has_value());
    EXPECT_EQ(art->depth, 9); // The newest record survived, the stale one is gone.
    EXPECT_TRUE(reloaded.lookup(cache::Fingerprint{2, 2}).has_value());
    EXPECT_TRUE(reloaded.lookup(cache::Fingerprint{3, 3}).has_value());

    // Compacting a compacted log is a fixpoint (byte size included).
    cache::CompactResult again = cache::ProofCache::compactLog(dir.str());
    EXPECT_TRUE(again.performed);
    EXPECT_EQ(again.recordsAfter, 3u);
    EXPECT_EQ(again.bytesAfter, cr.bytesAfter);
}

TEST(ProofStore, CompactDropsCorruptionAndIgnoresStaleStaging) {
    TempDir dir("compact_corrupt");
    {
        cache::ProofCache store(dir.str());
        store.store(cache::Fingerprint{1, 1}, sampleArtifact());
        store.store(cache::Fingerprint{2, 2}, sampleArtifact());
    }
    // Corrupt the first record's payload (framing intact, checksum fails)
    // and leave a stale staging file behind, as if a previous compactor
    // died mid-write. The compactor must drop the corrupt record, ignore
    // and replace the stale staging file, and produce a clean log.
    {
        std::fstream f(dir.logPath(), std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8 + 32 + 4);
        f.put(static_cast<char>(0x5a));
    }
    const fs::path staging = dir.path / "proofs.bin.compacting";
    std::ofstream(staging, std::ios::binary) << "half-written garbage from a dead compactor";
    ASSERT_TRUE(fs::exists(staging));

    cache::CompactResult cr = cache::ProofCache::compactLog(dir.str());
    EXPECT_TRUE(cr.performed);
    EXPECT_EQ(cr.recordsBefore, 1u);
    EXPECT_EQ(cr.droppedCorrupt, 1u);
    EXPECT_EQ(cr.recordsAfter, 1u);
    EXPECT_FALSE(fs::exists(staging)); // Promoted over the log, not left behind.

    cache::ProofCache reloaded(dir.str());
    EXPECT_EQ(reloaded.stats().entriesLoaded, 1u);
    EXPECT_EQ(reloaded.stats().loadErrors, 0u); // Corruption gone for good.
    EXPECT_FALSE(reloaded.lookup(cache::Fingerprint{1, 1}).has_value());
    EXPECT_TRUE(reloaded.lookup(cache::Fingerprint{2, 2}).has_value());
}

TEST(ProofStore, CompactRefusesForeignFile) {
    TempDir dir("compact_foreign");
    fs::create_directories(dir.path);
    std::ofstream(dir.logPath(), std::ios::binary) << "this is not a cache";
    cache::CompactResult cr = cache::ProofCache::compactLog(dir.str());
    EXPECT_FALSE(cr.performed);
    // The foreign bytes are untouched.
    std::ifstream in(dir.logPath());
    std::string contents((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "this is not a cache");

    // Even a foreign file shorter than our 8-byte magic is not ours to
    // destroy.
    std::ofstream(dir.logPath(), std::ios::binary | std::ios::trunc) << "abc";
    cr = cache::ProofCache::compactLog(dir.str());
    EXPECT_FALSE(cr.performed);
    EXPECT_EQ(fs::file_size(dir.logPath()), 3u);
}

TEST(ProofStore, CompactRefusesMissingLog) {
    // A typo'd --cache-dir must surface as "nothing to compact" — not
    // fabricate a directory tree and an empty log.
    TempDir dir("compact_missing");
    cache::CompactResult cr = cache::ProofCache::compactLog(dir.str());
    EXPECT_FALSE(cr.performed);
    EXPECT_FALSE(fs::exists(dir.logPath()));
}

/// The log's bytes, and each record's offset in them (framing as in
/// store.cpp: 8-byte file magic, then magic u32 | fp u64 u64 | payload
/// length u32 | checksum u64 | payload per record).
struct LogImage {
    std::string bytes;
    std::vector<size_t> records;

    explicit LogImage(const fs::path& path) {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
        for (size_t pos = 8; pos + 32 <= bytes.size(); pos += 32 + payloadSize(pos))
            records.push_back(pos);
    }
    [[nodiscard]] uint32_t payloadSize(size_t record) const {
        return cache::readU32(bytes.data() + record + 20);
    }
    /// Overwrites the u32 at `offset` of a record's payload and recomputes
    /// the record's checksum, so only payload validation can reject it.
    void setPayloadU32(size_t record, size_t offset, uint32_t v) {
        std::string word, sum;
        cache::putU32(word, v);
        bytes.replace(record + 32 + offset, word.size(), word);
        cache::putU64(sum, cache::hash64(bytes.data() + record + 32, payloadSize(record)));
        bytes.replace(record + 24, sum.size(), sum);
    }
    /// Drops every record whose artifact has a struct key other than `key`.
    void keepOnly(uint64_t key) {
        keepIf([key](std::optional<uint64_t> k) { return k == key; });
    }
    /// Drops every record whose artifact has struct key `key`.
    void drop(uint64_t key) {
        keepIf([key](std::optional<uint64_t> k) { return k != key; });
    }
    /// Keeps the records whose struct key (nullopt: the payload does not
    /// validate) satisfies `keep`.
    template <typename Pred> void keepIf(Pred keep) {
        std::string kept = bytes.substr(0, 8);
        std::vector<size_t> keptAt;
        for (size_t record : records) {
            const size_t size = 32 + payloadSize(record);
            const std::string_view payload = std::string_view(bytes).substr(record + 32, size - 32);
            if (!keep(cache::ProofArtifact::validate(payload))) continue;
            keptAt.push_back(kept.size());
            kept.append(bytes, record, size);
        }
        bytes = std::move(kept);
        records = std::move(keptAt);
    }
    void write(const fs::path& path) const {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    }
};

TEST(ProofStore, ChecksummedRecordThatDoesNotDecodeIsNeverServed) {
    TempDir dir("undecodable");
    cache::ProofArtifact odd = sampleArtifact();
    odd.structKey = 0x0ddULL;
    {
        cache::ProofCache store(dir.str());
        store.store(cache::Fingerprint{1, 1}, odd);
        store.store(cache::Fingerprint{2, 2}, sampleArtifact());
    }
    // Status 99 is no Status: the framing and the checksum hold, the
    // payload does not decode. It must fail at open, not at lookup.
    LogImage log(dir.logPath());
    ASSERT_EQ(log.records.size(), 2u);
    log.setPayloadU32(log.records[0], /*offset=*/8, 99);
    log.write(dir.logPath());

    cache::ProofCache store(dir.str());
    EXPECT_EQ(store.stats().entriesLoaded, 1u);
    EXPECT_EQ(store.stats().loadErrors, 1u);
    EXPECT_FALSE(store.lookup(cache::Fingerprint{1, 1}).has_value());
    EXPECT_FALSE(store.lookupNear(odd.structKey).has_value());
    EXPECT_TRUE(store.lookup(cache::Fingerprint{2, 2}).has_value());
    EXPECT_EQ(store.stats().hits, 1u);
}

TEST(ProofStore, CorruptNewerRecordLeavesTheOlderOneServed) {
    TempDir dir("race_corrupt");
    {
        cache::ProofCache a(dir.str());
        cache::ProofCache b(dir.str());
        cache::ProofArtifact older = sampleArtifact();
        older.depth = 7;
        cache::ProofArtifact newer = sampleArtifact();
        newer.depth = 9;
        a.store(cache::Fingerprint{1, 1}, older);
        b.store(cache::Fingerprint{1, 1}, newer); // Would win if intact.
    }
    LogImage log(dir.logPath());
    ASSERT_EQ(log.records.size(), 2u);
    log.bytes[log.records[1] + 32 + 4] ^= 0x5a; // Checksum now fails.
    log.write(dir.logPath());

    cache::ProofCache store(dir.str());
    EXPECT_EQ(store.stats().entriesLoaded, 1u);
    EXPECT_EQ(store.stats().loadErrors, 1u);
    auto art = store.lookup(cache::Fingerprint{1, 1});
    ASSERT_TRUE(art.has_value());
    EXPECT_EQ(art->depth, 7);
}

TEST(ProofStore, DecodesOnlyWhatIsLookedUp) {
    TempDir dir("lazy");
    {
        cache::ProofCache a(dir.str());
        cache::ProofCache b(dir.str());
        for (uint64_t k = 1; k <= 4; ++k) {
            cache::ProofArtifact art = sampleArtifact();
            art.structKey = k;
            a.store(cache::Fingerprint{k, k}, art);
        }
        b.store(cache::Fingerprint{1, 1}, sampleArtifact()); // A duplicate key.
    }
    {
        cache::ProofCache store(dir.str());
        EXPECT_EQ(store.stats().entriesLoaded, 5u);
        EXPECT_EQ(store.stats().decoded, 0u); // Opening validates, decodes nothing.
        EXPECT_FALSE(store.lookup(cache::Fingerprint{9, 9}).has_value());
        EXPECT_EQ(store.stats().decoded, 0u); // A miss decodes nothing.
        auto hit = store.lookup(cache::Fingerprint{3, 3});
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(store.stats().decoded, 1u); // A hit decodes its record only,
        EXPECT_TRUE(hit->lemmas.empty());     // and leaves its lemmas in the log
        EXPECT_EQ(store.storedLemmas(cache::Fingerprint{3, 3}).size(), 2u); // until asked.
        EXPECT_EQ(store.stats().decoded, 2u);
        EXPECT_TRUE(store.storedLemmas(cache::Fingerprint{9, 9}).empty());
        ASSERT_TRUE(store.lookupNear(2).has_value());
        EXPECT_EQ(store.stats().decoded, 3u);
        EXPECT_FALSE(store.lookupNear(9).has_value());
        EXPECT_EQ(store.stats().decoded, 3u);
        EXPECT_EQ(store.stats().lookups, 2u); // storedLemmas is no lookup.
    }
    cache::CompactResult cr = cache::ProofCache::compactLog(dir.str());
    EXPECT_TRUE(cr.performed);
    EXPECT_EQ(cr.recordsAfter, 4u);
    EXPECT_EQ(cr.decoded, 4u); // Each survivor once; the superseded record never.
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

// Safety (passing + failing), generated transaction liveness, and covers
// in one module, so every cache stage (FullPipeline, Frontier, ChainPdr)
// sees traffic.
constexpr const char* kMixedRtl = R"(
module m (
  input  wire clk_i,
  input  wire rst_ni,
  /*AUTOSVA
  txn: req -in> res
  */
  input  wire       req_val,
  output wire       req_ack,
  input  wire [1:0] req_transid,
  output wire       res_val,
  output wire [1:0] res_transid
);
  reg busy;
  reg [1:0] id_q;
  reg [3:0] q;
  assign req_ack = !busy;
  wire hsk = req_val && req_ack;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy <= 1'b0;
      id_q <= '0;
      q <= 4'd0;
    end else begin
      if (hsk) begin
        busy <= 1'b1;
        id_q <= req_transid;
      end else begin
        busy <= 1'b0;
      end
      if (q != 4'd15) q <= q + 4'd1;
    end
  end
  assign res_val = busy;
  assign res_transid = id_q;
  as__never9: assert property (q != 4'd9);
  as__bounded: assert property (q <= 4'd15);
  co__six: cover property (q == 4'd6);
endmodule)";

TEST(CacheIntegration, WarmRunMatchesColdAndSkipsAllSatWork) {
    TempDir dir("warm");
    sva::VerificationReport disabled = runMixed(kMixedRtl, "");
    sva::VerificationReport cold = runMixed(kMixedRtl, dir.str());
    sva::VerificationReport warm = runMixed(kMixedRtl, dir.str());

    EXPECT_EQ(disabled.canonical(), cold.canonical());
    EXPECT_EQ(cold.canonical(), warm.canonical());
    EXPECT_EQ(cold.engineStats.cacheHits, 0u);
    EXPECT_GT(warm.engineStats.cacheLookups, 0u);
    EXPECT_EQ(warm.engineStats.cacheHits, warm.engineStats.cacheLookups); // 100% hit rate.
    EXPECT_GT(warm.numCached(), 0u);
    EXPECT_EQ(warm.numCached(), warm.totalChecked());
    for (const auto& r : cold.results) EXPECT_FALSE(r.cached) << r.name;

    // Warm verdicts are identical for any worker count, and still all-hit.
    sva::VerificationReport warm4 = runMixed(kMixedRtl, dir.str(), /*jobs=*/4);
    EXPECT_EQ(warm.canonical(), warm4.canonical());
    EXPECT_EQ(warm4.engineStats.cacheHits, warm4.engineStats.cacheLookups);
}

TEST(CacheIntegration, CachedFailureKeepsItsTrace) {
    TempDir dir("trace");
    sva::VerificationReport cold = runMixed(kMixedRtl, dir.str());
    sva::VerificationReport warm = runMixed(kMixedRtl, dir.str());
    const auto* coldFail = cold.find("as__never9");
    const auto* warmFail = warm.find("as__never9");
    ASSERT_NE(coldFail, nullptr);
    ASSERT_NE(warmFail, nullptr);
    EXPECT_EQ(coldFail->status, Status::Failed);
    EXPECT_EQ(warmFail->status, Status::Failed);
    EXPECT_TRUE(warmFail->cached);
    EXPECT_EQ(warmFail->trace.inputs.size(), coldFail->trace.inputs.size());
    EXPECT_EQ(warmFail->trace.initialRegs, coldFail->trace.initialRegs);
}

TEST(CacheIntegration, CorruptedCacheFallsBackToFullProof) {
    TempDir dir("corrupt");
    sva::VerificationReport reference = runMixed(kMixedRtl, "");
    (void)runMixed(kMixedRtl, dir.str()); // Populate.

    // Garble the middle of the log: damaged entries must silently degrade
    // to misses — same verdicts, no crash.
    {
        auto size = fs::file_size(dir.logPath());
        std::fstream f(dir.logPath(), std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(size / 2));
        for (int i = 0; i < 64; ++i) f.put(static_cast<char>(0xa5));
    }
    sva::VerificationReport garbled = runMixed(kMixedRtl, dir.str());
    EXPECT_EQ(garbled.canonical(), reference.canonical());

    // Truncate to an arbitrary prefix: ditto.
    fs::resize_file(dir.logPath(), fs::file_size(dir.logPath()) / 3);
    sva::VerificationReport truncated = runMixed(kMixedRtl, dir.str());
    EXPECT_EQ(truncated.canonical(), reference.canonical());

    // Replace with garbage entirely: ditto.
    std::ofstream(dir.logPath(), std::ios::trunc) << "zzzzzzzzzzzzzzzzzzzzzz";
    sva::VerificationReport garbage = runMixed(kMixedRtl, dir.str());
    EXPECT_EQ(garbage.canonical(), reference.canonical());
}

// A PDR-shaped proof whose update function we can edit to exercise the
// near-miss path: the counter wraps at `wrap`, so q == 12 is unreachable
// for small wraps but NOT k-inductive (unreachable states 8..11 march
// straight into 12), forcing PDR to learn — and store — lemmas.
std::string pdrRtl(const std::string& wrap) {
    return R"(
module m (input wire clk_i, input wire rst_ni, input wire en);
  reg [3:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 4'd0;
    else if (en) begin
      if (q == 4'd)" +
           wrap + R"() q <= 4'd0;
      else q <= q + 4'd1;
    end
  end
  as__never12: assert property (q != 4'd12);
endmodule)";
}

std::vector<formal::PropertyResult> runScheduler(const std::string& src,
                                                 const std::string& cacheDir,
                                                 formal::EngineStats* stats = nullptr) {
    auto design = elab(src, "m");
    EngineOptions opts;
    opts.cacheDir = cacheDir;
    formal::ObligationScheduler scheduler(*design, opts);
    auto results = scheduler.run();
    if (stats) *stats = scheduler.stats();
    return results;
}

TEST(CacheIntegration, NearMissSeedsLemmasButNeverVerdicts) {
    TempDir dir("seed");
    // Cold proof of the original design: PDR stores its invariant.
    auto cold = runScheduler(pdrRtl("6"), dir.str());
    ASSERT_EQ(cold.size(), 1u);
    EXPECT_EQ(cold[0].status, Status::Proven);

    // Same property, edited cone, still true: the exact key misses, the
    // prior invariant seeds PDR (re-validated), and the proof closes.
    formal::EngineStats stats;
    auto edited = runScheduler(pdrRtl("5"), dir.str(), &stats);
    EXPECT_EQ(edited[0].status, Status::Proven);
    EXPECT_FALSE(edited[0].cached);
    EXPECT_GT(stats.cacheSeededLemmas, 0u);

    // Same property, edited cone, now FALSE (the counter runs through 12):
    // stale lemmas must not save it — the cache can never flip a failing
    // property to proven.
    auto broken = runScheduler(pdrRtl("14"), dir.str());
    EXPECT_EQ(broken[0].status, Status::Failed);
    EXPECT_FALSE(broken[0].cached);
}

// The designer loop: a safety bug fails the cold run, the fix is a one-line
// RTL edit, and the rerun proves everything. Both liveness obligations form
// the lemma chain; in the rerun each link is a near-miss (its cone changed)
// whose prior lemmas seed PDR, and each also holds its chain seeds: the
// fixed safety assertion's fresh invariant, plus the earlier link's. The
// near-miss lemmas must join the chain seeds, not replace them — a link
// that admits more seeds than the cache handed it kept both.
std::string chainRtl(const std::string& wrap) {
    return R"(
module m (input wire clk_i, input wire rst_ni);
  reg [3:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 4'd0;
    else if (q == 4'd)" +
           wrap + R"() q <= 4'd0;
    else q <= q + 4'd1;
  end
  as__never12: assert property (q != 4'd12);
  as__live_3: assert property (s_eventually (q == 4'd3));
  as__live_5: assert property (s_eventually (q == 4'd5));
endmodule)";
}

TEST(CacheIntegration, NearMissSeedsJoinChainSeeds) {
    TempDir dir("chain_seed");
    auto cold = runScheduler(chainRtl("14"), dir.str()); // q reaches 12.
    ASSERT_EQ(cold.size(), 3u);
    EXPECT_EQ(cold[0].status, Status::Failed);
    EXPECT_EQ(cold[1].status, Status::Proven);
    EXPECT_EQ(cold[2].status, Status::Proven);

    auto fixed = elab(chainRtl("6"), "m");
    obs::Recorder rec;
    EngineOptions opts;
    opts.cacheDir = dir.str();
    opts.trace = &rec;
    formal::ObligationScheduler scheduler(*fixed, opts);
    const auto rerun = scheduler.run();
    for (const auto& r : rerun) {
        EXPECT_EQ(r.status, Status::Proven) << r.name;
        EXPECT_FALSE(r.cached) << r.name;
    }
    // Per liveness link: the near-miss seeds the cache mapped, and the
    // seeds PDR admitted.
    std::map<int64_t, uint64_t> nearMiss, admitted;
    for (const auto& ev : rec.merged()) {
        const std::string name = ev.name;
        const bool pdrEnd = ev.kind == obs::TraceEvent::Kind::End && name == "pdr";
        if (!pdrEnd && name != "near-miss-seed") continue;
        for (size_t a = 0; a < ev.numArgs; ++a)
            if (std::string(ev.args[a].key) == "seeds")
                (pdrEnd ? admitted : nearMiss)[ev.ob] = ev.args[a].val;
    }
    for (int64_t link : {1, 2}) {
        SCOPED_TRACE(rerun[static_cast<size_t>(link)].name);
        ASSERT_GT(nearMiss[link], 0u);
        EXPECT_GT(admitted[link], nearMiss[link]);
    }
}

// An exact hit must seed later chain links like the proof it replays: the
// designer loop on two counters. `q != 12` needs PDR (q may stall, so the
// unreachable states 7..11 lead into 12 after any number of steps), and
// the liveness counter r reads q, so q's latches are in the link's cone.
// The cold run fails the liveness property; an edit to r alone fixes it.
std::string twoCounterRtl(const std::string& rStep) {
    return R"(
module m (input wire clk_i, input wire rst_ni, input wire en);
  reg [3:0] q;
  reg [3:0] r;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      q <= 4'd0;
      r <= 4'd0;
    end else begin
      if (en) begin
        if (q == 4'd6) q <= 4'd0;
        else q <= q + 4'd1;
      end
      if (q != 4'd12) r <= r + 4'd)" +
           rStep + R"(;
    end
  end
  as__never12: assert property (q != 4'd12);
  as__live_r3: assert property (s_eventually (r == 4'd3));
endmodule)";
}

/// Runs the scheduler on `design` under a fresh recorder and returns the
/// args of each obligation's `pdr` span (its End event), by index.
std::map<int64_t, std::map<std::string, uint64_t>> pdrSpans(
    const ir::Design& design, const std::string& cacheDir,
    std::vector<formal::PropertyResult>& results) {
    obs::Recorder rec;
    EngineOptions opts;
    opts.cacheDir = cacheDir;
    opts.trace = &rec;
    formal::ObligationScheduler scheduler(design, opts);
    results = scheduler.run();
    std::map<int64_t, std::map<std::string, uint64_t>> spans;
    for (const auto& ev : rec.merged()) {
        if (ev.kind != obs::TraceEvent::Kind::End || std::string(ev.name) != "pdr") continue;
        for (size_t a = 0; a < ev.numArgs; ++a) spans[ev.ob][ev.args[a].key] = ev.args[a].val;
    }
    return spans;
}

TEST(CacheIntegration, ExactHitSeedsLaterChainLinks) {
    TempDir dir("hit_seeds");
    auto cold = runScheduler(twoCounterRtl("2"), dir.str()); // r stays even.
    ASSERT_EQ(cold.size(), 2u);
    EXPECT_EQ(cold[0].status, Status::Proven);
    EXPECT_EQ(cold[1].status, Status::Failed);

    // The fix: the safety proof is an exact hit, the liveness link misses
    // and must still be seeded with that proof's invariant.
    auto fixed = elab(twoCounterRtl("1"), "m");
    std::vector<formal::PropertyResult> rerun;
    const auto rerunPdr = pdrSpans(*fixed, dir.str(), rerun);
    ASSERT_EQ(rerun.size(), 2u);
    EXPECT_TRUE(rerun[0].cached);
    EXPECT_EQ(rerun[0].status, Status::Proven);
    EXPECT_FALSE(rerun[1].cached);
    EXPECT_EQ(rerun[1].status, Status::Proven);
    EXPECT_EQ(rerunPdr.count(0), 0u); // Replayed, not searched.
    ASSERT_EQ(rerunPdr.count(1), 1u);
    EXPECT_GT(rerunPdr.at(1).at("seeds"), 0u);
}

TEST(CacheIntegration, ExactHitSeedsTheLinkAsTheUncachedRunDoes) {
    // The cache must hold this RTL's own safety proof and nothing of the
    // liveness property: fill it (the fill is the uncached reference run),
    // then drop the liveness records from the log. (PDR's cubes are lifted
    // to their cone, so the cold RTL's proof would serve as well: see
    // EditOutsideTheSafetyConeSearchesAsUncached.)
    TempDir dir("hit_seeds_exact");
    auto fixed = elab(twoCounterRtl("1"), "m");
    std::vector<formal::PropertyResult> uncached, rerun;
    const auto uncachedPdr = pdrSpans(*fixed, dir.str(), uncached);
    const uint64_t salt = cache::designSalt(*fixed);
    LogImage log(dir.logPath());
    log.keepOnly(cache::structKey("as__never12", ir::Obligation::Kind::SafetyBad,
                                  cache::Stage::FullPipeline, salt));
    ASSERT_EQ(log.records.size(), 1u);
    log.write(dir.logPath());

    const auto rerunPdr = pdrSpans(*fixed, dir.str(), rerun);
    ASSERT_EQ(rerun.size(), 2u);
    EXPECT_TRUE(rerun[0].cached);
    EXPECT_FALSE(rerun[1].cached);
    EXPECT_EQ(rerun[1].status, uncached[1].status);
    ASSERT_EQ(rerunPdr.count(1), 1u);
    ASSERT_EQ(uncachedPdr.count(1), 1u);
    EXPECT_GT(uncachedPdr.at(1).at("seeds"), 0u);
    EXPECT_EQ(rerunPdr.at(1).at("seeds"), uncachedPdr.at(1).at("seeds"));
    EXPECT_EQ(rerunPdr.at(1).at("queries"), uncachedPdr.at(1).at("queries"));
}

// The designer loop again, against the cold RTL's log: the safety proof
// is an exact hit, recorded on the cold RTL. PDR's cubes are lifted to the
// cone of what each query asks about and r is outside q's cone, so the
// edit to r moves neither the safety search nor the invariant it records:
// the liveness link searches query for query as an uncached run of the
// fixed RTL does.
TEST(CacheIntegration, EditOutsideTheSafetyConeSearchesAsUncached) {
    TempDir coldDir("edit_cold"), uncachedDir("edit_uncached");
    auto coldRtl = elab(twoCounterRtl("2"), "m");
    auto fixed = elab(twoCounterRtl("1"), "m");
    std::vector<formal::PropertyResult> cold, rerun, uncached;
    const auto coldPdr = pdrSpans(*coldRtl, coldDir.str(), cold);
    const auto rerunPdr = pdrSpans(*fixed, coldDir.str(), rerun);
    const auto uncachedPdr = pdrSpans(*fixed, uncachedDir.str(), uncached);
    ASSERT_EQ(cold.size(), 2u);
    ASSERT_EQ(rerun.size(), 2u);
    EXPECT_EQ(cold[1].status, Status::Failed);
    EXPECT_TRUE(rerun[0].cached);
    EXPECT_FALSE(rerun[1].cached);
    EXPECT_EQ(rerun[1].status, Status::Proven);
    EXPECT_EQ(uncached[1].status, Status::Proven);
    // The safety search is the same on either RTL.
    ASSERT_EQ(coldPdr.count(0), 1u);
    ASSERT_EQ(uncachedPdr.count(0), 1u);
    EXPECT_EQ(coldPdr.at(0).at("queries"), uncachedPdr.at(0).at("queries"));
    // So is the link it seeds.
    ASSERT_EQ(rerunPdr.count(1), 1u);
    ASSERT_EQ(uncachedPdr.count(1), 1u);
    EXPECT_GT(uncachedPdr.at(1).at("seeds"), 0u);
    EXPECT_EQ(rerunPdr.at(1).at("seeds"), uncachedPdr.at(1).at("seeds"));
    EXPECT_EQ(rerunPdr.at(1).at("queries"), uncachedPdr.at(1).at("queries"));
}

// A liveness job whose Frontier lookup serves a stored Unknown and whose
// chain lookup then misses is searched by PDR: its row must not report the
// cache. The log is filled from the same RTL, and only the chain record
// is dropped.
TEST(CacheIntegration, SearchedChainLinkIsNotReportedCached) {
    TempDir dir("chain_miss");
    auto fixed = elab(twoCounterRtl("1"), "m");
    std::vector<formal::PropertyResult> fill, rerun;
    (void)pdrSpans(*fixed, dir.str(), fill);
    LogImage log(dir.logPath());
    const size_t filled = log.records.size();
    log.drop(cache::structKey("as__live_r3", ir::Obligation::Kind::Justice,
                              cache::Stage::ChainPdr, cache::designSalt(*fixed)));
    ASSERT_EQ(log.records.size(), filled - 1);
    log.write(dir.logPath());

    const auto rerunPdr = pdrSpans(*fixed, dir.str(), rerun);
    ASSERT_EQ(rerun.size(), 2u);
    EXPECT_TRUE(rerun[0].cached); // Served whole: FullPipeline hit.
    EXPECT_EQ(rerunPdr.count(0), 0u);
    ASSERT_EQ(rerunPdr.count(1), 1u); // Frontier hit (Unknown), chain miss: searched.
    EXPECT_FALSE(rerun[1].cached);
    EXPECT_EQ(rerun[1].status, fill[1].status);
}

// ---------------------------------------------------------------------------
// Warm reruns of paper designs
// ---------------------------------------------------------------------------

/// `autosva run-design <name>` at engine defaults, with the proof cache
/// in `cacheDir` (empty disables it).
sva::VerificationReport runPaperDesign(const designs::DesignInfo& info,
                                       const std::string& cacheDir) {
    util::DiagEngine diags;
    core::FormalTestbench ft = core::generateFT(info.rtl, {}, diags);
    core::VerifyOptions vopts;
    vopts.engine.cacheDir = cacheDir;
    if (!info.extensionSva.empty()) vopts.extraSources.push_back(info.extensionSva);
    return core::verify(designs::rtlSources(info), ft, vopts, diags);
}

// The cache changes how fast a verdict arrives, never which verdict: on the
// Ariane MMU (submodule binds, the seeded lemma chain) and LSU, a cold run
// reports what a cache-free run reports, and a rerun of the unchanged
// design is answered from the log alone, without one SAT call.
TEST(CacheWarmRerun, ArianeMmuAndLsuAllHitAndSatFree) {
    for (const char* name : {"ariane_mmu", "ariane_lsu"}) {
        SCOPED_TRACE(name);
        const auto& info = designs::design(name);
        TempDir dir(std::string("warm_") + name);
        const sva::VerificationReport disabled = runPaperDesign(info, "");
        const sva::VerificationReport cold = runPaperDesign(info, dir.str());
        const sva::VerificationReport warm = runPaperDesign(info, dir.str());

        EXPECT_EQ(disabled.canonical(), cold.canonical());
        EXPECT_EQ(cold.canonical(), warm.canonical());
        EXPECT_GT(warm.engineStats.cacheLookups, 0u);
        EXPECT_EQ(warm.engineStats.cacheHits, warm.engineStats.cacheLookups);
        EXPECT_EQ(warm.engineStats.satCalls, 0u);
    }
}

} // namespace
