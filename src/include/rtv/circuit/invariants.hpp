// CMOS correctness conditions as safety properties (Section 5.1):
// short-circuit freedom per candidate node.  Persistency of the
// circuit-driven events is PersistencyProperty (rtv/verify/property.hpp).
#pragma once

#include <memory>
#include <vector>

#include "rtv/circuit/netlist.hpp"
#include "rtv/verify/property.hpp"

namespace rtv {

/// One invariant per short-circuit candidate node: the derived SC_<node>
/// signal emitted by the elaboration must never be true.
std::vector<std::unique_ptr<SafetyProperty>> short_circuit_properties(
    const Netlist& netlist);

}  // namespace rtv
