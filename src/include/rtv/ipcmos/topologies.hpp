// Non-linear IPCMOS topologies.
//
// The paper (Section 3.1): "Generally IPCMOS blocks can be fed multiple ACK
// and VALID signals to enable safely processing data from multiple sources
// and feeding the result to multiple destinations", with the transistor
// count 21 + 7*N_in + 4*N_out.  The DATE'02 evaluation only exercises the
// linear pipeline; these builders extend the reproduction to the join
// (2 producers -> 1 stage -> 1 consumer) and fork (1 producer -> 1 stage ->
// 2 consumers) cases:
//
//   join:  IN_a --Va/A-->  J  --Vo/Ao--> OUT        (N_in = 2)
//          IN_b --Vb/A-->
//
//   fork:  IN --Vi/Ai-->  F  --Va/Aa--> OUT_a       (N_out = 2)
//                            --Vb/Ab--> OUT_b
#pragma once

#include "rtv/ipcmos/experiments.hpp"
#include "rtv/ipcmos/pipeline.hpp"

namespace rtv::ipcmos {

/// 2-input join stage plus its environments (two pulse-driven producers,
/// one pulse-driven consumer).
ModuleSet join_system(const PipelineTiming& t = {});

/// 1-input fork stage plus its environments (one producer, two consumers).
ModuleSet fork_system(const PipelineTiming& t = {});

/// The join/fork netlists alone (for properties and accounting).
Netlist make_join_netlist(const StageTiming& t = {});
Netlist make_fork_netlist(const StageTiming& t = {});

/// Verify a topology against S (deadlock-freedom, persistency and the
/// stage's short-circuit invariants) on the "refine" engine, one worker.
EngineResult verify_join(const ExperimentConfig& cfg = {});
EngineResult verify_fork(const ExperimentConfig& cfg = {});

}  // namespace rtv::ipcmos
