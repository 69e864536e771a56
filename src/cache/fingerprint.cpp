#include "cache/fingerprint.hpp"

#include <algorithm>

namespace autosva::cache {

namespace {

/// splitmix64 finalizer — strong enough mixing for cache keys.
[[nodiscard]] uint64_t mix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Two independently-seeded 64-bit lanes fed the same word stream.
struct Mix128 {
    uint64_t a = 0x6a09e667f3bcc908ULL;
    uint64_t b = 0xbb67ae8584caa73bULL;

    void mix(uint64_t v) {
        a = mix64(a ^ v);
        b = mix64(b + (v * 0xff51afd7ed558ccdULL | 1));
    }

    [[nodiscard]] Fingerprint digest() const { return {mix64(a ^ b), mix64(b + a)}; }
};

} // namespace

uint64_t hash64(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t optionsDigest(const formal::EngineOptions& opts, Stage stage, bool coverMode,
                      ir::Obligation::Kind kind) {
    // Bump the version whenever key derivation or artifact semantics change:
    // old cache entries then become unreachable instead of wrong. v3: the
    // ordering-insensitive PDR rewrite changed recorded invariants and
    // proof depths, and the lemma DAG changed the ChainPdr strengthening
    // context. v4: the global budget pool joined the verdict function.
    // v5: the PDR leg ladder and the per-solve conflict budget left it.
    // v6: the PDR retry allowance, the PDR frame bound and the PDR and
    // cache-seeding switches left it; PDR runs one search per obligation.
    // (Phase B's return from DAG waves to one lemma chain needs no bump:
    // the strengthened pdrBad is part of every ChainPdr key.) v7: the
    // global budget pool left it, and every lemma chain link is seeded
    // with the invariants proven before it. v8: PDR lifts its obligation
    // cubes by ternary simulation and searches up to 120 frames, which
    // moves budget-bound searches and the invariants proofs record. v9:
    // k-induction left the pipeline, so a Frontier record is a BMC-probe
    // verdict and every proof comes from PDR. v10: PDR keeps each cube at
    // one frame and generalizes from the cores it already has, so searches
    // end differently and a stored budget-bound Unknown may now be proven.
    constexpr uint64_t kFormatVersion = 10;
    Mix128 h;
    h.mix(kFormatVersion);
    h.mix(static_cast<uint64_t>(stage));
    h.mix(static_cast<uint64_t>(kind));
    h.mix(coverMode ? 1 : 0);
    h.mix(static_cast<uint64_t>(opts.bmcDepth));
    h.mix(opts.pdrMaxQueries);
    // perturbSeed is deliberately absent: like `jobs`, it cannot move a
    // verdict (the fuzz suite gates that), so seeded and unseeded runs
    // share the cache.
    return h.digest().hi;
}

uint64_t structKey(const std::string& obligationName, ir::Obligation::Kind kind, Stage stage,
                   uint64_t designSalt) {
    uint64_t h = hash64(obligationName.data(), obligationName.size());
    h = mix64(h ^ designSalt);
    h = mix64(h ^ (static_cast<uint64_t>(kind) << 8 | static_cast<uint64_t>(stage)));
    return h;
}

uint64_t designSalt(const ir::Design& design) {
    std::vector<std::string> names;
    names.reserve(design.inputs().size());
    for (ir::NodeId input : design.inputs()) names.push_back(design.node(input).name);
    std::sort(names.begin(), names.end());
    uint64_t h = 0x0de51615a17ULL;
    for (const std::string& name : names) h = mix64(h ^ hash64(name.data(), name.size()));
    return h;
}

Fingerprint fingerprintCone(const formal::Aig& aig, const std::vector<formal::AigLit>& roots,
                            uint64_t optsDigest) {
    using formal::Aig;
    using formal::AigLit;

    constexpr uint32_t kUnvisited = UINT32_MAX;
    std::vector<uint32_t> canon(aig.numVars(), kUnvisited);
    std::vector<uint32_t> order; // Vars in canonical (first-visit) order.
    std::vector<uint32_t> stack;

    // Deterministic DFS from the roots in their given order. Latch
    // next-state edges are followed, so the whole sequential cone is
    // covered; cycles through latches are fine because nodes are hashed by
    // canonical id, not recursively.
    auto visit = [&](AigLit root) {
        uint32_t rv = formal::aigVar(root);
        if (canon[rv] != kUnvisited) return;
        stack.push_back(rv);
        canon[rv] = static_cast<uint32_t>(order.size());
        order.push_back(rv);
        while (!stack.empty()) {
            uint32_t v = stack.back();
            stack.pop_back();
            auto push = [&](AigLit child) {
                uint32_t cv = formal::aigVar(child);
                if (canon[cv] != kUnvisited) return;
                canon[cv] = static_cast<uint32_t>(order.size());
                order.push_back(cv);
                stack.push_back(cv);
            };
            switch (aig.kind(v)) {
            case Aig::VarKind::And:
                push(aig.fanin0(v));
                push(aig.fanin1(v));
                break;
            case Aig::VarKind::Latch:
                push(aig.latchNext(v));
                break;
            case Aig::VarKind::Const:
            case Aig::VarKind::Input:
                break;
            }
        }
    };
    for (AigLit root : roots) visit(root);

    auto canonLit = [&](AigLit l) {
        return uint64_t{canon[formal::aigVar(l)]} * 2 + (formal::aigSign(l) ? 1 : 0);
    };

    Mix128 h;
    h.mix(optsDigest);
    h.mix(order.size());
    for (uint32_t v : order) {
        switch (aig.kind(v)) {
        case Aig::VarKind::Const:
            h.mix(0x10);
            break;
        case Aig::VarKind::Input:
            h.mix(0x20);
            break;
        case Aig::VarKind::Latch:
            h.mix(0x30 + static_cast<uint64_t>(aig.latchInit(v) + 1));
            h.mix(canonLit(aig.latchNext(v)));
            break;
        case Aig::VarKind::And:
            h.mix(0x40);
            h.mix(canonLit(aig.fanin0(v)));
            h.mix(canonLit(aig.fanin1(v)));
            break;
        }
    }
    // Root identities (which cone node plays which role, with polarity).
    h.mix(roots.size());
    for (AigLit root : roots) h.mix(canonLit(root));
    return h.digest();
}

std::unordered_map<std::string, uint32_t> latchNameMap(const formal::Aig& aig) {
    std::unordered_map<std::string, uint32_t> map;
    map.reserve(aig.latches().size());
    for (uint32_t lv : aig.latches()) {
        const std::string& name = aig.varName(lv);
        if (!name.empty()) map.emplace(name, lv);
    }
    return map;
}

} // namespace autosva::cache
