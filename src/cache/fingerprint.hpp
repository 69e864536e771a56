// Content-addressed keys for the persistent proof cache.
//
// A proof obligation's verdict is fully determined by (a) the bit-level
// cone of influence of its bad literal(s) over the AIG — including the
// transitive fanin through latch next-state functions — (b) the frame
// constraints the engine applies, and (c) the engine bounds that affect
// which verdict a bounded procedure can reach (BMC depth, the PDR query
// budget). fingerprintCone() hashes exactly that closure into a
// stable 128-bit key: node identity is canonicalized by deterministic
// traversal order, so AIG variable renumbering caused by edits *outside*
// the cone does not move the key, while any structural change *inside* the
// cone does.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "formal/aig.hpp"
#include "formal/result.hpp"
#include "rtlir/design.hpp"

namespace autosva::cache {

/// 128-bit content hash. Not cryptographic — collision resistance is sized
/// for cache keying (2^64 birthday bound), not for adversarial inputs.
struct Fingerprint {
    uint64_t hi = 0;
    uint64_t lo = 0;

    [[nodiscard]] bool operator==(const Fingerprint& o) const { return hi == o.hi && lo == o.lo; }
    [[nodiscard]] bool operator!=(const Fingerprint& o) const { return !(*this == o); }
    [[nodiscard]] bool isZero() const { return hi == 0 && lo == 0; }
};

struct FingerprintHash {
    [[nodiscard]] size_t operator()(const Fingerprint& fp) const {
        return static_cast<size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
    }
};

/// Which slice of the strategy pipeline a cached artifact covers. Liveness
/// obligations are discharged in two steps (the parallel BMC probe, then
/// the sequential PDR lemma chain), so the two steps key separately.
enum class Stage : uint8_t {
    FullPipeline = 0, ///< BMC probe -> PDR (phase-A jobs).
    Frontier = 1,     ///< The BMC probe only (liveness pre-pass).
    ChainPdr = 2,     ///< The sequential liveness PDR step.
};

/// 64-bit FNV-1a — used for record checksums and struct keys.
[[nodiscard]] uint64_t hash64(const void* data, size_t size);

/// Digest of every engine option that can change a verdict (bounds and
/// budgets; worker count deliberately excluded — results are
/// jobs-invariant). Includes a format version so key semantics can evolve.
[[nodiscard]] uint64_t optionsDigest(const formal::EngineOptions& opts, Stage stage,
                                     bool coverMode, ir::Obligation::Kind kind);

/// Identity-of-the-obligation key, independent of the netlist content:
/// used to find "the same property in a previous run" after an RTL edit
/// moved its exact fingerprint (near-miss lemma seeding). `designSalt`
/// distinguishes same-named properties of different designs sharing one
/// cache directory (see designSalt()).
[[nodiscard]] uint64_t structKey(const std::string& obligationName, ir::Obligation::Kind kind,
                                 Stage stage, uint64_t designSalt);

/// Design-identity salt for struct keys: a hash of the design's primary
/// input names (sorted). The interface is stable across the internal edits
/// near-miss seeding targets, but distinct between different DUTs, so
/// formulaic property names ("as__bounded") don't collide across designs.
[[nodiscard]] uint64_t designSalt(const ir::Design& design);

/// Fingerprint of one obligation: canonical hash of the union cone of
/// `roots` (bad, pdrBad, save oracle, every frame constraint) over `aig`,
/// mixed with `optsDigest`.
[[nodiscard]] Fingerprint fingerprintCone(const formal::Aig& aig,
                                          const std::vector<formal::AigLit>& roots,
                                          uint64_t optsDigest);

/// Latch-name -> AIG latch var map for translating stored lemma cubes onto
/// the current AIG. Unnamed latches are absent (their cubes don't port).
[[nodiscard]] std::unordered_map<std::string, uint32_t> latchNameMap(const formal::Aig& aig);

} // namespace autosva::cache
