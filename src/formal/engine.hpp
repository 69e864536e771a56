// Model-checking engine facade.
//
// Per design: bit-blast once, then discharge every obligation through the
// parallel obligation scheduler (see scheduler.hpp):
//  - safety asserts:  a shallow BMC probe (counterexamples), then PDR
//                     (proofs and deeper counterexamples)
//  - liveness asserts: liveness-to-safety transformation (shadow state,
//                     Biere/Artho/Schuppan) honouring fairness assumptions,
//                     then the same pipeline -> lasso counterexamples or
//                     proofs
//  - covers:          BMC reachability; PDR concludes Unreachable
//  - assumes:         safety assumes become frame constraints; liveness
//                     assumes become fairness constraints
//
// EngineOptions::jobs picks the worker-thread count; results are
// deterministic (obligation declaration order, identical verdicts and
// depths) for any value.
#pragma once

#include <vector>

#include "formal/bitblast.hpp"
#include "formal/result.hpp"
#include "formal/scheduler.hpp"
#include "rtlir/design.hpp"

namespace autosva::formal {

class Engine {
public:
    explicit Engine(const ir::Design& design, EngineOptions opts = {})
        : scheduler_(design, opts) {}

    /// Checks every obligation of the design and returns per-property
    /// results in obligation declaration order.
    [[nodiscard]] std::vector<PropertyResult> checkAll() { return scheduler_.run(); }

    [[nodiscard]] const EngineStats& stats() const { return scheduler_.stats(); }
    [[nodiscard]] const BitBlast& blasted() const { return scheduler_.blasted(); }

private:
    ObligationScheduler scheduler_;
};

} // namespace autosva::formal
