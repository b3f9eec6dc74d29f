#include "rtv/circuit/invariants.hpp"

namespace rtv {

std::vector<std::unique_ptr<SafetyProperty>> short_circuit_properties(
    const Netlist& netlist) {
  std::vector<std::unique_ptr<SafetyProperty>> out;
  for (NodeId n : netlist.short_circuit_candidates()) {
    const std::string name = netlist.node_name(n);
    out.push_back(std::make_unique<InvariantProperty>(
        "short-circuit at " + name,
        std::vector<InvariantProperty::Literal>{{"SC_" + name, true}}));
  }
  return out;
}

}  // namespace rtv
