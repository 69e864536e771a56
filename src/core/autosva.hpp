// AutoSVA facade: the public entry points of the framework.
//
//   generateFT()  — annotated RTL text -> complete formal testbench
//                   (property module, bind file, JasperGold TCL, SymbiYosys
//                   .sby, statistics). This is the paper's contribution:
//                   "AutoSVA generates FTs in under a second".
//
//   verify()      — run a generated testbench end-to-end with the built-in
//                   model checker (BMC probe + PDR + liveness-to-safety)
//                   and return a per-property report. Substitutes
//                   for the JasperGold runs in the paper's evaluation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/language.hpp"
#include "core/propgen.hpp"
#include "formal/engine.hpp"
#include "sva/report.hpp"

namespace autosva::core {

struct AutoSvaOptions {
    std::string dutName;    ///< Empty: first module in the source.
    std::string clockName;  ///< Empty: auto-detect.
    std::string resetName;  ///< Empty: auto-detect.
    /// Path (or logical name) of the annotated RTL buffer. Used as the
    /// diagnostic buffer name and as the provenance file every generated
    /// property cites. Empty: "dut.sv".
    std::string sourcePath;
    bool assertInputs = false; ///< "-AS": assumptions become assertions.
    bool includeXprop = true;
    bool includeCovers = true;
    int maxOutstanding = 8;
};

/// A complete generated formal testbench. The property module + bind
/// directive exist twice: as the typed AST (`propertyAst`, what the
/// verification path elaborates — no re-parse of generated text) and as
/// printed text projections (`propertyFile`/`bindFile`, what `autosva gen`
/// writes for external tools).
struct FormalTestbench {
    std::string dutName;
    std::string propertyModuleName;
    /// Typed AST of the property module and bind directive; the printed
    /// artifacts below are printer projections of exactly this tree.
    std::shared_ptr<const verilog::SourceFile> propertyAst;
    std::string propertyFile;
    std::string bindFile;
    std::string jasperTcl;
    std::string sbyFile;

    std::vector<GeneratedProperty> properties;
    int annotationLines = 0;
    double generationSeconds = 0.0;

    [[nodiscard]] int numProperties() const { return static_cast<int>(properties.size()); }
    [[nodiscard]] int numAssertions() const;
    [[nodiscard]] int numAssumptions() const;
    [[nodiscard]] int numCovers() const;
    [[nodiscard]] int numLiveness() const;
};

/// Generates a formal testbench from annotated RTL. Throws
/// util::FrontendError on malformed annotations. Diagnostics (lints,
/// warnings) accumulate in `diags`.
[[nodiscard]] FormalTestbench generateFT(const std::string& rtlSource,
                                         const AutoSvaOptions& opts, util::DiagEngine& diags);

struct VerifyOptions {
    formal::EngineOptions engine;
    /// Diagnostic buffer names parallel to the `rtlSources` argument of
    /// verify()/elaborateWithFT (real CLI paths, so parse/elaboration
    /// errors cite actual files). Missing entries fall back to "dut.sv"
    /// for index 0 and "source<i>" beyond.
    std::vector<std::string> sourcePaths;
    /// Additional RTL sources (submodule definitions used by the DUT).
    std::vector<std::string> extraSources;
    /// Linked submodule testbenches (the paper's "-AM" flow): their property
    /// modules are bound to the submodule instances inside the DUT.
    std::vector<const FormalTestbench*> submoduleFts;
    /// Extra top-level parameter overrides.
    std::unordered_map<std::string, uint64_t> paramOverrides;
};

/// Verifies `ft` against the DUT using the built-in engine. `rtlSources`
/// must contain the DUT module (and any submodules it instantiates).
[[nodiscard]] sva::VerificationReport verify(const std::vector<std::string>& rtlSources,
                                             const FormalTestbench& ft,
                                             const VerifyOptions& opts, util::DiagEngine& diags);

/// Builds the elaborated design (DUT + bound property modules) that verify()
/// checks — exposed for simulation reuse (§III-B property checking in
/// simulation) and for tests.
[[nodiscard]] std::unique_ptr<ir::Design> elaborateWithFT(
    const std::vector<std::string>& rtlSources, const FormalTestbench& ft,
    const VerifyOptions& opts, util::DiagEngine& diags, bool tieReset = true);

} // namespace autosva::core
