// Property-generation tests: the Table II attribute -> property mapping,
// assert/assume orientation rules, ASSERT_INPUTS flipping, and the
// generated artifacts (property file, bind file, tool scripts).
#include <gtest/gtest.h>

#include "core/autosva.hpp"
#include "sva/catalog.hpp"
#include "verilog/parser.hpp"

namespace {

using namespace autosva;
using core::FormalTestbench;

const char* kFullRtl = R"(
module dut #(
  parameter ID_W = 2
) (
  input  wire clk_i,
  input  wire rst_ni,
  /*AUTOSVA
  load: req -in> res
  [ID_W-1:0] req_transid_unique = req_id_i
  [ID_W-1:0] req_data = req_addr_i
  [ID_W-1:0] res_data = res_addr_o
  req_active = busy_o
  [ID_W-1:0] req_stable = req_id_i
  out_txn: oreq -out> ores
  */
  input  wire            req_val,
  output wire            req_ack,
  input  wire [ID_W-1:0] req_id_i,
  input  wire [ID_W-1:0] req_addr_i,
  output wire            res_val,
  output wire [ID_W-1:0] res_transid,
  output wire [ID_W-1:0] res_addr_o,
  output wire            busy_o,
  output wire            oreq_val,
  input  wire            oreq_ack,
  input  wire            ores_val
);
  assign req_ack = 1'b1;
  assign res_val = 1'b0;
  assign res_transid = '0;
  assign res_addr_o = '0;
  assign busy_o = 1'b0;
  assign oreq_val = 1'b0;
endmodule
)";

FormalTestbench gen(const core::AutoSvaOptions& opts = {}) {
    util::DiagEngine diags;
    return core::generateFT(kFullRtl, opts, diags);
}

bool hasProp(const FormalTestbench& ft, const std::string& label) {
    for (const auto& p : ft.properties)
        if (p.label == label) return true;
    return false;
}

const core::GeneratedProperty& prop(const FormalTestbench& ft, const std::string& label) {
    for (const auto& p : ft.properties)
        if (p.label == label) return p;
    throw std::runtime_error("missing " + label);
}

TEST(PropGen, TableIIMappingIncoming) {
    FormalTestbench ft = gen();
    // val* -> liveness + no-orphan-response, asserted (incoming).
    EXPECT_TRUE(hasProp(ft, "as__load_eventual_response"));
    EXPECT_TRUE(prop(ft, "as__load_eventual_response").isLiveness);
    EXPECT_TRUE(hasProp(ft, "as__load_had_a_request"));
    // ack* -> handshake liveness, asserted for the DUT-controlled req side.
    EXPECT_TRUE(hasProp(ft, "as__load_req_hsk_or_drop"));
    // stable -> assumed on the environment-driven request payload.
    EXPECT_TRUE(hasProp(ft, "am__load_req_stability"));
    // active -> always asserted.
    EXPECT_TRUE(hasProp(ft, "as__load_req_active"));
    // transid (via transid_unique alias) -> symbolic tracking assumption.
    EXPECT_TRUE(hasProp(ft, "am__load_symb_transid_stable"));
    // transid_unique -> assumed for incoming transactions.
    EXPECT_TRUE(hasProp(ft, "am__load_transid_unique"));
    // data -> integrity asserted (incoming).
    EXPECT_TRUE(hasProp(ft, "as__load_data_integrity"));
    // covers.
    EXPECT_TRUE(hasProp(ft, "co__load_request_happens"));
    EXPECT_TRUE(hasProp(ft, "co__load_response_happens"));
    // X-prop assertions.
    EXPECT_TRUE(prop(ft, "xp__load_req_xprop").isXprop);
}

TEST(PropGen, OrientationFlipsForOutgoing) {
    FormalTestbench ft = gen();
    // Outgoing transaction: liveness of the response is an assumption
    // (fairness of the environment).
    EXPECT_TRUE(hasProp(ft, "am__out_txn_eventual_response"));
    EXPECT_TRUE(hasProp(ft, "am__out_txn_had_a_request"));
    // The environment acks the DUT's outgoing request: assumed.
    EXPECT_TRUE(hasProp(ft, "am__out_txn_oreq_hsk_or_drop"));
    // max-outstanding bound: requester is the DUT now, so asserted.
    EXPECT_TRUE(hasProp(ft, "as__out_txn_max_outstanding"));
}

TEST(PropGen, AssertInputsFlipsAssumptions) {
    core::AutoSvaOptions opts;
    opts.assertInputs = true;
    FormalTestbench ft = gen(opts);
    for (const auto& p : ft.properties) {
        if (p.isCover) continue;
        EXPECT_TRUE(p.isAssert) << p.label;
    }
    EXPECT_TRUE(hasProp(ft, "as__load_transid_unique"));
    EXPECT_TRUE(hasProp(ft, "as__load_req_stability"));
}

TEST(PropGen, XpropAndCoversCanBeDisabled) {
    core::AutoSvaOptions opts;
    opts.includeXprop = false;
    opts.includeCovers = false;
    FormalTestbench ft = gen(opts);
    EXPECT_EQ(ft.numCovers(), 0);
    for (const auto& p : ft.properties) EXPECT_FALSE(p.isXprop) << p.label;
}

TEST(PropGen, PropertyFileParses) {
    // The generated property module must parse with our own frontend.
    FormalTestbench ft = gen();
    EXPECT_NO_THROW({
        auto file = verilog::Parser::parseSource(ft.propertyFile, "prop.sv");
        ASSERT_EQ(file.modules.size(), 1u);
        EXPECT_EQ(file.modules[0]->name, "dut_prop");
    });
    EXPECT_NO_THROW(verilog::Parser::parseSource(ft.bindFile, "bind.svh"));
}

TEST(PropGen, PropertyFileStructure) {
    FormalTestbench ft = gen();
    // Fig. 2 artifacts: sampled counter, symbolic variable, stability
    // assumption, eventual response, cover.
    EXPECT_NE(ft.propertyFile.find("load_sampled"), std::string::npos);
    EXPECT_NE(ft.propertyFile.find("symb_load_transid"), std::string::npos);
    EXPECT_NE(ft.propertyFile.find("$stable(symb_load_transid)"), std::string::npos);
    EXPECT_NE(ft.propertyFile.find("s_eventually (load_response)"), std::string::npos);
    EXPECT_NE(ft.propertyFile.find("default disable iff (!rst_ni)"), std::string::npos);
    // The DUT parameter is mirrored so width expressions still elaborate.
    EXPECT_NE(ft.propertyFile.find("parameter ID_W"), std::string::npos);
}

TEST(PropGen, BindFileTargetsDut) {
    FormalTestbench ft = gen();
    EXPECT_EQ(ft.bindFile.find("bind dut dut_prop dut_prop_i (.*);"), ft.bindFile.find("bind"));
}

TEST(PropGen, ToolScriptsReferenceArtifacts) {
    FormalTestbench ft = gen();
    EXPECT_NE(ft.jasperTcl.find("analyze -sv12"), std::string::npos);
    EXPECT_NE(ft.jasperTcl.find("elaborate -top dut"), std::string::npos);
    EXPECT_NE(ft.jasperTcl.find("reset !rst_ni"), std::string::npos);
    EXPECT_NE(ft.sbyFile.find("[engines]"), std::string::npos);
    EXPECT_NE(ft.sbyFile.find("prep -top dut"), std::string::npos);
}

TEST(PropGen, CountsAreConsistent) {
    FormalTestbench ft = gen();
    EXPECT_EQ(ft.numProperties(), static_cast<int>(ft.properties.size()));
    EXPECT_EQ(ft.numProperties(),
              ft.numAssertions() + ft.numAssumptions() + ft.numCovers() + [&] {
                  int x = 0;
                  for (const auto& p : ft.properties)
                      if (p.isXprop) ++x;
                  return x;
              }());
    EXPECT_GT(ft.numLiveness(), 0);
}

TEST(PropGen, NoAckMeansNoHskProperty) {
    const char* rtl = R"(
module nk (
  input wire clk_i, input wire rst_ni,
  /*AUTOSVA
  t: a -in> b
  */
  input wire a_val, output wire b_val
);
  assign b_val = 1'b0;
endmodule)";
    util::DiagEngine diags;
    FormalTestbench ft = core::generateFT(rtl, {}, diags);
    for (const auto& p : ft.properties)
        EXPECT_EQ(p.label.find("hsk_or_drop"), std::string::npos) << p.label;
}

TEST(PropGen, StableWithoutAckChecksAgainstValOnly) {
    const char* rtl = R"(
module sw (
  input wire clk_i, input wire rst_ni,
  /*AUTOSVA
  t: a -in> b
  [3:0] a_stable = a_payload
  */
  input wire a_val, input wire [3:0] a_payload, output wire b_val
);
  assign b_val = 1'b0;
endmodule)";
    util::DiagEngine diags;
    FormalTestbench ft = core::generateFT(rtl, {}, diags);
    EXPECT_NE(ft.propertyFile.find("a_val_m |=> $stable(a_stable_m)"), std::string::npos);
    EXPECT_GE(diags.count(util::Severity::Warning), 1u);
}

// Fig. 7 / AB3: an interface whose ports follow the naming convention needs
// only the transaction declaration; the same interface under other names
// maps every attribute explicitly. Both generate the same property set.
TEST(PropGen, ImplicitAndExplicitAnnotationsGenerateTheSameProperties) {
    const char* implicitRtl = R"(
module conv (
  input  wire clk_i,
  input  wire rst_ni,
  /*AUTOSVA
  t: req -in> res
  */
  input  wire       req_val,
  output wire       req_ack,
  input  wire [1:0] req_transid,
  input  wire [3:0] req_data,
  output wire       res_val,
  output wire [1:0] res_transid,
  output wire [3:0] res_data
);
  assign req_ack = 1'b0;
  assign res_val = 1'b0;
  assign res_transid = '0;
  assign res_data = '0;
endmodule)";
    const char* explicitRtl = R"(
module expl (
  input  wire clk_i,
  input  wire rst_ni,
  /*AUTOSVA
  t: req -in> res
  req_val = in_valid
  req_ack = in_ready
  [1:0] req_transid = in_tag
  [3:0] req_data = in_payload
  res_val = out_valid
  [1:0] res_transid = out_tag
  [3:0] res_data = out_payload
  */
  input  wire       in_valid,
  output wire       in_ready,
  input  wire [1:0] in_tag,
  input  wire [3:0] in_payload,
  output wire       out_valid,
  output wire [1:0] out_tag,
  output wire [3:0] out_payload
);
  assign in_ready = 1'b0;
  assign out_valid = 1'b0;
  assign out_tag = '0;
  assign out_payload = '0;
endmodule)";
    util::DiagEngine diags;
    FormalTestbench implicitFt = core::generateFT(implicitRtl, {}, diags);
    FormalTestbench explicitFt = core::generateFT(explicitRtl, {}, diags);
    EXPECT_GT(implicitFt.numProperties(), 0);
    EXPECT_EQ(implicitFt.numProperties(), explicitFt.numProperties());
    EXPECT_LT(implicitFt.annotationLines, explicitFt.annotationLines);
}

// Parameterized sweep: every Table II rule resolves to the right directive
// for both transaction directions.
class OrientationSweep : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(OrientationSweep, MatchesCatalogRule) {
    const auto& rules = sva::propertyRules();
    int ruleIdx = std::get<0>(GetParam());
    bool incoming = std::get<1>(GetParam());
    const auto& rule = rules[static_cast<size_t>(ruleIdx)];
    bool asserted = sva::isAsserted(rule.orientation, incoming);
    switch (rule.orientation) {
    case sva::Orientation::Starred:
        EXPECT_EQ(asserted, incoming);
        break;
    case sva::Orientation::Opposite:
        EXPECT_EQ(asserted, !incoming);
        break;
    case sva::Orientation::AlwaysAssert:
        EXPECT_TRUE(asserted);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRulesBothDirections, OrientationSweep,
    ::testing::Combine(::testing::Range(0, static_cast<int>(sva::propertyRules().size())),
                       ::testing::Bool()));

} // namespace
