#include "rtv/verify/induction.hpp"

#include <algorithm>

namespace rtv {

std::vector<DerivedOrdering> InductionResult::constraints() const {
  std::vector<DerivedOrdering> all;
  for (const EngineResult* r : {&base, &step}) {
    if (const auto* st = std::get_if<RefineEngineStats>(&r->stats)) {
      const std::vector<DerivedOrdering> c = st->constraints();
      all.insert(all.end(), c.begin(), c.end());
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

InductionResult prove_fixed_point(
    const Module& base_env, const Module& left_abstraction,
    const Module& component, const Module& context, const Module& abstraction,
    const std::vector<const SafetyProperty*>& properties) {
  InductionResult r;
  r.base = check_containment({&base_env, &component, &context}, abstraction,
                             properties);
  r.step = check_containment({&left_abstraction, &component, &context},
                             abstraction, properties);
  return r;
}

}  // namespace rtv
