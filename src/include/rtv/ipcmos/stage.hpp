// Transistor-level reconstruction of one IPCMOS control stage.
//
// The DATE'02 paper gives the stack-level behaviour of the strobe and
// strobe-switch circuits (Fig. 11 and Section 5.1); the full ISSCC'00
// schematics are not public, so this is a behaviour-preserving
// reconstruction, documented below.  Per input channel i and output
// channel j, a stage has:
//
//   strobe switch i (7 transistors):
//     Vint_i : precharged sense line.  Discharged through the pass
//              n-transistor (gate Y_i) when VALID_i is low; precharged by
//              the p-transistor on CLKE; weak keeper holds it high while
//              Z_i is low.  Short-circuit candidate (paper invariant 2).
//     Z_i    : inverter of Vint_i.
//     Y_i    : isolation control; pulled up by a p-transistor on Z_i
//              (En(Y+) = !Y & !Z), pulled down by the n-transistor on ACK
//              (En(Y-) = Y & ACK).  Short-circuit candidate (invariant 1).
//
//   strobe core (21 transistors):
//     X    : self-resetting strobe state; set when all Vint_i are low and
//            all reset switches report ready, cleared when Vint precharges.
//     ACK  : buffered acknowledge pulse to the senders (follows X, then
//            self-resets through the pulse stage A2).
//     CLKE : local clock pulse, inverted follower of ACK.
//     D    : delay line matching the worst-case logic delay.
//     VALID_out j : follower of D (the "valid module" of Fig. 5).
//
//   reset switch j (4 transistors):
//     R_j  : ready flag; cleared while the delayed strobe D is low (data
//            launched), set again by the receiver's ACK_j.
//
// Every delay is a parameter (StageTiming); the defaults were chosen so
// that the circuit is correct exactly when the paper's Fig. 13 orderings
// (Z+ before ACK+, Y- before CLKE-, ACK- before Z-, CLKE+ before the next
// VALID-) hold, which the verification flow then derives.
#pragma once

#include <string>
#include <vector>

#include "rtv/circuit/netlist.hpp"
#include "rtv/ts/module.hpp"

namespace rtv::ipcmos {

struct StageTiming {
  // Strobe switch.
  DelayInterval vint_fall = DelayInterval::units(0, 2);   ///< pass discharge
  DelayInterval vint_rise = DelayInterval::units(2, 3);   ///< CLKE precharge
  DelayInterval z_rise = DelayInterval::units(0, 2);
  DelayInterval z_fall = DelayInterval::units(3, 4);
  DelayInterval y_rise = DelayInterval::units(6, 7);   ///< re-arm after CLKE+
  DelayInterval y_fall = DelayInterval::units(1, 2);
  // Strobe core.
  DelayInterval x_rise = DelayInterval::units(1, 2);
  DelayInterval x_fall = DelayInterval::units(1, 2);
  DelayInterval ack_rise = DelayInterval::units(8, 11);   ///< big driver
  DelayInterval a2_rise = DelayInterval::units(4, 5);     ///< pulse width stage
  DelayInterval a2_fall = DelayInterval::units(1, 2);
  DelayInterval ack_fall = DelayInterval::units(1, 2);    ///< self-reset
  DelayInterval clke_fall = DelayInterval::units(3, 4);
  DelayInterval clke_rise = DelayInterval::units(4, 5);
  // Valid module / delay line.
  DelayInterval d_fall = DelayInterval::units(3, 4);
  DelayInterval d_rise = DelayInterval::units(3, 4);
  DelayInterval valid_fall = DelayInterval::units(1, 2);
  DelayInterval valid_rise = DelayInterval::units(1, 2);
  // Reset switch.
  DelayInterval r_fall = DelayInterval::units(1, 2);
  DelayInterval r_rise = DelayInterval::units(1, 2);
};

/// Builds the netlist of one stage.  `inputs[i]` names the input channels
/// (signals VALID=<name>, consumed ACK=<ack_out> is shared), `outputs[j]`
/// the output channels.  For the linear pipeline of the paper each stage
/// has exactly one of each.
struct StageChannels {
  std::vector<std::string> valid_in;   ///< VALID lines from the senders
  std::string ack_out;                 ///< ACK line to all senders
  std::vector<std::string> valid_out;  ///< VALID lines to the receivers
  std::vector<std::string> ack_in;     ///< ACK lines from the receivers
};

Netlist make_stage_netlist(const std::string& name, const StageChannels& ch,
                           const StageTiming& timing = {});

/// Elaborated stage module.
Module stage_module(const std::string& name, const StageChannels& ch,
                    const StageTiming& timing = {});

/// Linear-pipeline channels of stage k: VALID_k/ACK_k on the left,
/// VALID_{k+1}/ACK_{k+1} on the right.
StageChannels linear_channels(int k);

/// The paper's transistor count: 21 + 7*N_in + 4*N_out.
int expected_transistors(int n_inputs, int n_outputs);

}  // namespace rtv::ipcmos
