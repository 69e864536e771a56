// End-to-end pipeline tests: annotated RTL -> generated FT -> elaboration
// -> model checking, on small handwritten DUTs.
#include <gtest/gtest.h>

#include "core/autosva.hpp"
#include "designs/designs.hpp"
#include "verilog/parser.hpp"

namespace {

using namespace autosva;

// A one-outstanding echo unit: accepts a request when idle and answers with
// the same transaction ID exactly one cycle later.
const char* kEchoRtl = R"(
module echo #(
  parameter ID_W = 2
) (
  input  wire clk_i,
  input  wire rst_ni,
  /*AUTOSVA
  txn: req -in> res
  */
  input  wire            req_val,
  output wire            req_ack,
  input  wire [ID_W-1:0] req_transid,
  output wire            res_val,
  output wire [ID_W-1:0] res_transid
);
  reg busy;
  reg [ID_W-1:0] id_q;
  assign req_ack = !busy;
  wire hsk = req_val && req_ack;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy <= 1'b0;
      id_q <= '0;
    end else begin
      if (hsk) begin
        busy <= 1'b1;
        id_q <= req_transid;
      end else begin
        busy <= 1'b0;
      end
    end
  end
  assign res_val = busy;
  assign res_transid = id_q;
endmodule
)";

// Broken variant: the response drops the transaction when a new request
// arrives in the response cycle (ack not gated) — response lost.
const char* kEchoBuggyRtl = R"(
module echo_bug #(
  parameter ID_W = 2
) (
  input  wire clk_i,
  input  wire rst_ni,
  /*AUTOSVA
  txn: req -in> res
  */
  input  wire            req_val,
  output wire            req_ack,
  input  wire [ID_W-1:0] req_transid,
  output wire            res_val,
  output wire [ID_W-1:0] res_transid
);
  reg busy;
  reg [ID_W-1:0] id_q;
  assign req_ack = 1'b1; // BUG: accepts while a response is still due...
  wire hsk = req_val && req_ack;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      busy <= 1'b0;
      id_q <= '0;
    end else begin
      if (hsk) begin
        busy <= 1'b1;
        id_q <= req_transid;
      end else begin
        busy <= 1'b0;
      end
    end
  end
  assign res_val = busy && !hsk; // ...and suppresses it when a new one lands.
  assign res_transid = id_q;
endmodule
)";

TEST(Pipeline, GeneratesTestbenchForEcho) {
    util::DiagEngine diags;
    core::AutoSvaOptions opts;
    core::FormalTestbench ft = core::generateFT(kEchoRtl, opts, diags);

    EXPECT_EQ(ft.dutName, "echo");
    EXPECT_EQ(ft.propertyModuleName, "echo_prop");
    EXPECT_GT(ft.numProperties(), 5);
    EXPECT_GT(ft.numAssertions(), 0);
    EXPECT_GT(ft.numAssumptions(), 0);
    EXPECT_GT(ft.numLiveness(), 0);
    EXPECT_EQ(ft.annotationLines, 1); // Only the transaction declaration.
    // Key artifacts present.
    EXPECT_NE(ft.propertyFile.find("module echo_prop"), std::string::npos);
    EXPECT_NE(ft.propertyFile.find("s_eventually"), std::string::npos);
    EXPECT_NE(ft.propertyFile.find("symb_txn_transid"), std::string::npos);
    EXPECT_NE(ft.bindFile.find("bind echo echo_prop"), std::string::npos);
    EXPECT_NE(ft.jasperTcl.find("elaborate -top echo"), std::string::npos);
    EXPECT_NE(ft.sbyFile.find("mode prove"), std::string::npos);
    // Generation is fast (paper: "under a second").
    EXPECT_LT(ft.generationSeconds, 1.0);
}

TEST(Pipeline, ProvesCorrectEcho) {
    util::DiagEngine diags;
    core::AutoSvaOptions opts;
    core::FormalTestbench ft = core::generateFT(kEchoRtl, opts, diags);
    core::VerifyOptions vopts;
    sva::VerificationReport report = core::verify({kEchoRtl}, ft, vopts, diags);

    SCOPED_TRACE(report.str());
    EXPECT_TRUE(report.allProven());
    EXPECT_FALSE(report.anyFailed());
    // The request path must be coverable (non-vacuous testbench).
    const auto* cover = report.find("co__txn_request_happens");
    ASSERT_NE(cover, nullptr);
    EXPECT_EQ(cover->status, formal::Status::Covered);
}

TEST(Pipeline, FindsBugInBrokenEcho) {
    util::DiagEngine diags;
    core::AutoSvaOptions opts;
    core::FormalTestbench ft = core::generateFT(kEchoBuggyRtl, opts, diags);
    core::VerifyOptions vopts;
    sva::VerificationReport report = core::verify({kEchoBuggyRtl}, ft, vopts, diags);

    SCOPED_TRACE(report.str());
    EXPECT_TRUE(report.anyFailed());
    const auto* failure = report.firstFailure();
    ASSERT_NE(failure, nullptr);
    // Short trace, as the paper reports for real bugs.
    EXPECT_LE(failure->depth, 10);
    EXPECT_FALSE(failure->trace.inputs.empty());
}

// Typed-AST pipeline contract on every registry design: elaborating a
// generated testbench parses each RTL source exactly once and never
// re-parses the generated property or bind text.
TEST(Pipeline, ElaborationNeverReparsesGeneratedText) {
    for (const auto& info : designs::allDesigns()) {
        SCOPED_TRACE(info.name);
        util::DiagEngine diags;
        core::AutoSvaOptions genOpts;
        genOpts.sourcePath = info.name + ".sv";
        core::FormalTestbench ft = core::generateFT(info.rtl, genOpts, diags);
        const std::vector<std::string> sources = designs::rtlSources(info);
        core::VerifyOptions vopts;
        vopts.sourcePaths = designs::rtlSourceNames(info);
        const uint64_t parses0 = verilog::Parser::sourceParseCount();
        auto design = core::elaborateWithFT(sources, ft, vopts, diags);
        ASSERT_NE(design, nullptr);
        EXPECT_EQ(verilog::Parser::sourceParseCount() - parses0, sources.size());
    }
}

} // namespace
