// Time-frame expansion of an AIG into a SAT solver (Tseitin encoding with
// latch aliasing between frames). Shared by BMC and PDR.
// Cones are encoded lazily, the first time lit() asks for a literal, and
// the solver keeps every encoded variable, so any literal handed out stays
// valid for assumptions, later clauses and model reads — up to a solver
// garbage collection, after which the owner calls relabel() and asks
// lit() again.
#pragma once

#include <utility>
#include <vector>

#include "formal/aig.hpp"
#include "formal/sat.hpp"

namespace autosva::formal {

class Unroller {
public:
    enum class Init {
        Reset, ///< Frame-0 latches take their defined initial values.
        Free,  ///< Frame-0 latches unconstrained (PDR states).
    };

    Unroller(const Aig& aig, SatSolver& solver, Init init)
        : aig_(aig), solver_(solver), init_(init) {
        falseLit_ = mkSatLit(solver_.newVar());
        solver_.addUnit(satNeg(falseLit_));
    }

    static constexpr SatLit kUnset = -1;

    /// SAT literal of AIG literal `l` at time frame `frame` (materializes
    /// the Tseitin cone on demand).
    SatLit lit(int frame, AigLit l) {
        SatLit base = varLit(frame, aigVar(l));
        return aigSign(l) ? satNeg(base) : base;
    }

    /// Returns the mapped literal if already materialized, else kUnset.
    [[nodiscard]] SatLit peek(int frame, AigLit l) const {
        if (frame < 0 || frame >= static_cast<int>(map_.size())) return kUnset;
        SatLit base = map_[static_cast<size_t>(frame)][aigVar(l)];
        if (base == kUnset) return kUnset;
        return aigSign(l) ? satNeg(base) : base;
    }

    [[nodiscard]] int numFrames() const { return static_cast<int>(map_.size()); }
    /// Root cones that actually had to be encoded (lit() cache misses) —
    /// on a shared Unroller this stops growing once the cone is warm, which
    /// is the reuse win the --stats counters expose.
    [[nodiscard]] uint64_t conesMaterialized() const { return conesMaterialized_; }

    /// Renames the literal table through a solver garbage collection's
    /// old->new variable map (SatSolver::collectGarbage). The Unroller
    /// never closes a clause group, so every variable it encoded survives.
    void relabel(const std::vector<int>& varMap) {
        falseLit_ = relabelSatLit(varMap, falseLit_);
        for (auto& frame : map_)
            for (SatLit& slot : frame)
                if (slot != kUnset) slot = relabelSatLit(varMap, slot);
    }

private:
    SatLit varLit(int frame, uint32_t rootVar) {
        ensureFrame(frame);
        if (map_[static_cast<size_t>(frame)][rootVar] != kUnset)
            return map_[static_cast<size_t>(frame)][rootVar];
        ++conesMaterialized_;

        std::vector<std::pair<int, uint32_t>> stack{{frame, rootVar}};
        while (!stack.empty()) {
            auto [f, v] = stack.back();
            ensureFrame(f);
            auto& slot = map_[static_cast<size_t>(f)][v];
            if (slot != kUnset) {
                stack.pop_back();
                continue;
            }
            switch (aig_.kind(v)) {
            case Aig::VarKind::Const:
                slot = falseLit_;
                stack.pop_back();
                break;
            case Aig::VarKind::Input:
                slot = mkSatLit(solver_.newVar());
                stack.pop_back();
                break;
            case Aig::VarKind::Latch: {
                if (f == 0) {
                    slot = mkSatLit(solver_.newVar());
                    if (init_ == Init::Reset && aig_.latchInit(v) >= 0)
                        solver_.addUnit(aig_.latchInit(v) ? slot : satNeg(slot));
                    stack.pop_back();
                    break;
                }
                AigLit nxt = aig_.latchNext(v);
                SatLit sub = map_[static_cast<size_t>(f - 1)][aigVar(nxt)];
                if (sub == kUnset) {
                    stack.emplace_back(f - 1, aigVar(nxt));
                    break;
                }
                slot = aigSign(nxt) ? satNeg(sub) : sub;
                stack.pop_back();
                break;
            }
            case Aig::VarKind::And: {
                AigLit f0 = aig_.fanin0(v);
                AigLit f1 = aig_.fanin1(v);
                SatLit a = map_[static_cast<size_t>(f)][aigVar(f0)];
                SatLit b = map_[static_cast<size_t>(f)][aigVar(f1)];
                if (a == kUnset) {
                    stack.emplace_back(f, aigVar(f0));
                    break;
                }
                if (b == kUnset) {
                    stack.emplace_back(f, aigVar(f1));
                    break;
                }
                SatLit la = aigSign(f0) ? satNeg(a) : a;
                SatLit lb = aigSign(f1) ? satNeg(b) : b;
                SatLit c = mkSatLit(solver_.newVar());
                solver_.addBinary(satNeg(c), la);
                solver_.addBinary(satNeg(c), lb);
                solver_.addTernary(c, satNeg(la), satNeg(lb));
                slot = c;
                stack.pop_back();
                break;
            }
            }
        }
        return map_[static_cast<size_t>(frame)][rootVar];
    }

    void ensureFrame(int frame) {
        while (static_cast<int>(map_.size()) <= frame)
            map_.emplace_back(aig_.numVars(), kUnset);
    }

    const Aig& aig_;
    SatSolver& solver_;
    Init init_;
    SatLit falseLit_;
    uint64_t conesMaterialized_ = 0;
    std::vector<std::vector<SatLit>> map_;
};

} // namespace autosva::formal
