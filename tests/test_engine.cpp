// Model-checking engine tests on hand-written designs: BMC depth accuracy,
// PDR proofs, liveness-to-safety with fairness, covers, constraint
// handling, and trace replay.
#include <gtest/gtest.h>

#include "formal/engine.hpp"
#include "formal/pdr.hpp"
#include "formal/replay.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "rtlir/elaborate.hpp"

namespace {

using namespace autosva;
using formal::Engine;
using formal::EngineOptions;
using formal::Status;

std::unique_ptr<ir::Design> elab(const std::string& src, const std::string& top) {
    util::DiagEngine diags;
    ir::ElabOptions opts;
    opts.tieOffs["rst_ni"] = 1;
    return ir::elaborateSources({src}, top, diags, opts);
}

const formal::PropertyResult& findResult(const std::vector<formal::PropertyResult>& results,
                                         const std::string& name) {
    for (const auto& r : results)
        if (r.name == name) return r;
    throw std::runtime_error("no result " + name);
}

TEST(Engine, BmcFindsBugAtExactDepth) {
    // Counter reaches 5 after exactly 5 steps.
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni);
  reg [3:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 4'd0;
    else q <= q + 4'd1;
  end
  as__never5: assert property (q != 4'd5);
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    const auto& r = findResult(results, "as__never5");
    EXPECT_EQ(r.status, Status::Failed);
    EXPECT_EQ(r.depth, 5);
    EXPECT_EQ(r.trace.length(), 6); // Frames 0..5.
}

TEST(Engine, InvariantProven) {
    // A 3-bit one-hot rotator stays one-hot.
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni);
  reg [2:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 3'b001;
    else q <= {q[1:0], q[2]};
  end
  as__onehot: assert property ($onehot(q));
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    EXPECT_EQ(findResult(results, "as__onehot").status, Status::Proven);
}

TEST(Engine, DeepInvariantNeedsPdr) {
    // Two coupled counters: equal unless one observes wrap asymmetry —
    // simple k-induction at small k fails, PDR proves.
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire en);
  reg [3:0] a;
  reg [3:0] b;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) begin
      a <= 4'd0;
      b <= 4'd0;
    end else if (en) begin
      a <= a + 4'd1;
      b <= b + 4'd1;
    end
  end
  as__equal: assert property (a == b);
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    EXPECT_EQ(findResult(results, "as__equal").status, Status::Proven);
}

TEST(Engine, LivenessCexWithoutFairness) {
    // req set pending; env response never forced -> lasso CEX.
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire req, input wire resp);
  as__live: assert property (req |-> s_eventually (resp));
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    const auto& r = findResult(results, "as__live");
    EXPECT_EQ(r.status, Status::Failed);
    EXPECT_GE(r.trace.loopStart, 0); // Lasso trace.
}

TEST(Engine, LivenessProvenWithFairnessAssumption) {
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire req, input wire resp);
  am__fair: assume property (req |-> s_eventually (resp));
  as__live: assert property (req |-> s_eventually (resp));
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    EXPECT_EQ(findResult(results, "as__live").status, Status::Proven);
}

TEST(Engine, LivenessOfHandshakeFsm) {
    // A request-grant FSM that always answers in 2 cycles: proven without
    // any fairness.
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire req);
  reg [1:0] st;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) st <= 2'd0;
    else if (st == 2'd0 && req) st <= 2'd1;
    else if (st == 2'd1) st <= 2'd2;
    else if (st == 2'd2) st <= 2'd0;
  end
  wire busy = st != 2'd0;
  wire done = st == 2'd2;
  as__live: assert property (req && !busy |-> s_eventually (done));
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    EXPECT_EQ(findResult(results, "as__live").status, Status::Proven);
}

TEST(Engine, ConstraintsPruneCex) {
    // Without the assumption the bad state is reachable; with it, proven.
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire [3:0] in);
  reg [3:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 4'd0;
    else q <= in;
  end
  am__bounded: assume property (in < 4'd8);
  as__small: assert property (q < 4'd8);
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    EXPECT_EQ(findResult(results, "as__small").status, Status::Proven);
}

TEST(Engine, CoverReachableAndUnreachable) {
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire en);
  reg [2:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 3'd0;
    else if (en && q < 3'd6) q <= q + 3'd1;
  end
  co__six: cover property (q == 3'd6);
  co__seven: cover property (q == 3'd7);
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    const auto& six = findResult(results, "co__six");
    EXPECT_EQ(six.status, Status::Covered);
    EXPECT_EQ(six.depth, 6);
    EXPECT_EQ(findResult(results, "co__seven").status, Status::Unreachable);
}

TEST(Engine, NonOverlappingImplication) {
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire a);
  reg a_q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) a_q <= 1'b0;
    else a_q <= a;
  end
  as__next_ok: assert property (a |=> a_q);
  as__next_bad: assert property (a |=> !a_q);
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    EXPECT_EQ(findResult(results, "as__next_ok").status, Status::Proven);
    EXPECT_EQ(findResult(results, "as__next_bad").status, Status::Failed);
}

TEST(Engine, TraceReplayMatchesViolation) {
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire [1:0] in);
  reg [1:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 2'd0;
    else q <= in;
  end
  as__neverthree: assert property (q != 2'd3);
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    const auto& r = findResult(results, "as__neverthree");
    ASSERT_EQ(r.status, Status::Failed);
    auto cycles = formal::replayTrace(*d, r.trace);
    ASSERT_EQ(cycles.size(), r.trace.inputs.size());
    // At the failing cycle, q must equal 3.
    EXPECT_EQ(cycles.back().signals.at("q").val, 3u);
}

TEST(Engine, XpropObligationsSkipped) {
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire v, input wire [3:0] payload);
  xp__p: assert property (v |-> !$isunknown(payload));
endmodule)",
                  "m");
    Engine engine(*d);
    auto results = engine.checkAll();
    EXPECT_EQ(findResult(results, "xp__p").status, Status::Skipped);
}

TEST(Engine, PdrDirectInterface) {
    // Exercise pdrCheck() directly on a bit-blasted design.
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire en);
  reg [2:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 3'd0;
    else if (en && q != 3'd4) q <= q + 3'd1;
  end
  as__x: assert property (q <= 3'd4);
endmodule)",
                  "m");
    formal::BitBlast bb = formal::bitblast(*d);
    formal::AigLit bad = bb.lit(d->obligations()[0].net);
    formal::PdrResult pr = formal::pdrCheck(bb.aig, bad, {});
    EXPECT_EQ(pr.kind, formal::PdrResult::Kind::Proven);
    // And reachability of the boundary value is confirmed as a Cex of the
    // negated claim.
    formal::PdrResult reach =
        formal::pdrCheck(bb.aig, bb.lit(d->obligations()[0].net) ^ 1u, {});
    EXPECT_EQ(reach.kind, formal::PdrResult::Kind::Cex);
}

TEST(Engine, CexPastTheBmcProbeKeepsItsShortestShape) {
    // Every witness here is deeper than the default BMC probe, so PDR finds
    // it and runPdr's fresh-solver replay (searching up from k = 0) must
    // report the same shortest depth, trace length and loop start as a BMC
    // deep enough to find it directly. The replay's solves are counted and
    // attributed, so the profile reconciles with the engine's sat-calls.
    auto d = elab(R"(
module m (input wire clk_i, input wire rst_ni, input wire en, input wire resp);
  reg [4:0] q;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 5'd0;
    else if (en) q <= q + 5'd1;
  end
  as__never12: assert property (q != 5'd12);
  co__ten: cover property (q == 5'd10);
  as__nine_resp: assert property ((q == 5'd9) |-> s_eventually (resp));
endmodule)",
                  "m");
    ASSERT_LT(EngineOptions{}.bmcDepth, 10) << "the witnesses must lie past the probe";
    formal::EngineStats probeStats;
    auto run = [&](EngineOptions opts, obs::Recorder* rec) {
        opts.trace = rec;
        Engine engine(*d, opts);
        auto results = engine.checkAll();
        if (rec) probeStats = engine.stats();
        return results;
    };
    obs::Recorder rec;
    auto probe = run(EngineOptions{}, &rec);
    EngineOptions deep;
    deep.bmcDepth = 25;
    auto full = run(deep, nullptr);

    const auto& never12 = findResult(probe, "as__never12");
    EXPECT_EQ(never12.status, Status::Failed);
    EXPECT_EQ(never12.depth, 12);
    EXPECT_EQ(never12.trace.length(), 13);
    const auto& ten = findResult(probe, "co__ten");
    EXPECT_EQ(ten.status, Status::Covered);
    EXPECT_EQ(ten.depth, 10);
    const auto& lasso = findResult(probe, "as__nine_resp");
    EXPECT_EQ(lasso.status, Status::Failed);
    EXPECT_EQ(lasso.depth, 11);
    EXPECT_EQ(lasso.trace.loopStart, 10);

    for (const char* name : {"as__never12", "co__ten", "as__nine_resp"}) {
        const auto& a = findResult(probe, name);
        const auto& b = findResult(full, name);
        EXPECT_EQ(a.status, b.status) << name;
        EXPECT_EQ(a.depth, b.depth) << name;
        EXPECT_EQ(a.trace.length(), b.trace.length()) << name;
        EXPECT_EQ(a.trace.loopStart, b.trace.loopStart) << name;
    }
    // The probe run reached all three through PDR's replay.
    size_t replays = 0;
    for (const auto& ev : rec.merged())
        if (ev.kind == obs::TraceEvent::Kind::End && std::string_view(ev.name) == "cex-replay")
            ++replays;
    EXPECT_EQ(replays, 3u);
    EXPECT_EQ(obs::buildProfile(rec).attributedQueries, probeStats.satCalls);
}

} // namespace
