// Liveness-to-safety transformation (Biere/Artho/Schuppan): a justice
// obligation "j happens infinitely often" fails iff the design has a lasso
// (a reachable loop) with every fairness assumption satisfied inside the
// loop but j never occurring. The transform adds a nondeterministic save
// oracle, shadow copies of all latches (captured at the save point), and
// loop-closure / seen trackers, turning the lasso search into plain safety
// reachability that the BMC / PDR strategies discharge.
#include "formal/strategy.hpp"

namespace autosva::formal {

LivenessTransform::LivenessTransform(const ir::Design& design, const BitBlast& bb,
                                     const std::vector<AigLit>& fairness)
    : aig_(bb.aig) { // Copy preserves var numbering; original lits stay valid.
    Aig& a = aig_;

    saveOracle_ = a.mkInput("__l2s_save");
    AigLit saved = a.mkLatch(0, "__l2s_saved");
    AigLit saveNow = a.mkAnd(saveOracle_, aigNot(saved));
    AigLit savedNext = a.mkOr(saved, saveNow);
    a.setLatchNext(saved, savedNext);

    // Shadow copy of every original latch, captured at the save point.
    std::vector<uint32_t> originalLatches = bb.aig.latches();
    AigLit stateEq = kAigTrue;
    for (uint32_t lv : originalLatches) {
        AigLit latch = aigMkLit(lv);
        AigLit shadow = a.mkLatch(-1, "__l2s_shadow_" + std::to_string(lv));
        a.setLatchNext(shadow, a.mkMux(saveNow, latch, shadow));
        stateEq = a.mkAnd(stateEq, aigNot(a.mkXor(latch, shadow)));
    }
    AigLit loopClosed = a.mkAnd(saved, stateEq);

    // Fairness trackers: each assumed-fair signal must occur inside the loop.
    AigLit fairAll = kAigTrue;
    for (AigLit f : fairness) {
        AigLit seen = a.mkLatch(0, "__l2s_fair");
        a.setLatchNext(seen, a.mkAnd(savedNext, a.mkOr(seen, f)));
        fairAll = a.mkAnd(fairAll, seen);
    }

    // Per-justice-obligation "seen" trackers and bad nets.
    for (const auto& ob : design.obligations()) {
        if (ob.xprop || ob.kind != ir::Obligation::Kind::Justice) continue;
        AigLit j = bb.lit(ob.net);
        AigLit seen = a.mkLatch(0, "__l2s_just_" + ob.name);
        a.setLatchNext(seen, a.mkAnd(savedNext, a.mkOr(seen, j)));
        // Violation: loop closed, all fairness seen, justice never seen.
        bads_[&ob] = a.mkAnd(a.mkAnd(loopClosed, fairAll), aigNot(seen));
        seens_[&ob] = seen;
    }
}

} // namespace autosva::formal
