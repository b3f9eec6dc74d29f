#include "rtv/ipcmos/stage.hpp"

#include <cassert>

#include "rtv/circuit/elaborate.hpp"

namespace rtv::ipcmos {

Netlist make_stage_netlist(const std::string& name, const StageChannels& ch,
                           const StageTiming& t) {
  assert(!ch.valid_in.empty());
  assert(!ch.valid_out.empty());
  assert(ch.valid_out.size() == ch.ack_in.size());
  Netlist nl(name);
  ExprPool& xp = nl.exprs();

  // ---- interface nodes ----------------------------------------------------
  // Initially the pipeline is empty: VALID high, CLKE high, ACK low.
  std::vector<NodeId> vin;
  for (const std::string& v : ch.valid_in)
    vin.push_back(nl.add_node(v, true, /*input=*/true));
  const NodeId ack = nl.add_node(ch.ack_out, false, false, /*boundary=*/true);
  std::vector<NodeId> vout, ain;
  for (const std::string& v : ch.valid_out)
    vout.push_back(nl.add_node(v, true, false, /*boundary=*/true));
  for (const std::string& a : ch.ack_in)
    ain.push_back(nl.add_node(a, false, /*input=*/true));

  // ---- strobe switches (7 transistors per input) --------------------------
  std::vector<NodeId> vint, y, z;
  for (std::size_t i = 0; i < vin.size(); ++i) {
    const std::string sfx =
        vin.size() == 1 ? std::string() : std::string("_") + std::to_string(i);
    const NodeId vi = nl.add_node(name + ".Vint" + sfx, true);
    const NodeId zi = nl.add_node(name + ".Z" + sfx, false);
    const NodeId yi = nl.add_node(name + ".Y" + sfx, true);
    vint.push_back(vi);
    z.push_back(zi);
    y.push_back(yi);

    // Vint: discharged via the pass transistor while Y holds and the input
    // VALID is low; precharged by the CLKE p-transistor; weak keeper
    // (the "(weak)" transistor of Fig. 11) while Z is low.
    nl.pull_down(vi, xp.conj2(xp.lit(yi, true), xp.lit(vin[i], false)),
                 t.vint_fall, 2);
    // (CLKE pull-up added below once CLKE exists.)

    // Z: inverter of Vint.
    nl.pull_up(zi, xp.lit(vi, false), t.z_rise, 1);
    nl.pull_down(zi, xp.lit(vi, true), t.z_fall, 1);

    // Y: En(Y+) = !Y & !Z (p-transistor on Z); En(Y-) = Y & ACK.
    nl.pull_up(yi, xp.lit(zi, false), t.y_rise, 1);
    nl.pull_down(yi, xp.lit(ack, true), t.y_fall, 1);
  }

  // ---- reset switches (4 transistors per output) ---------------------------
  // R_j: cleared while the delayed strobe D is low and the receiver has not
  // acknowledged yet; set by the receiver's ACK.
  std::vector<NodeId> r;
  const NodeId d = nl.add_node(name + ".D", true);
  for (std::size_t j = 0; j < vout.size(); ++j) {
    const std::string sfx =
        vout.size() == 1 ? std::string() : std::string("_") + std::to_string(j);
    const NodeId rj = nl.add_node(name + ".R" + sfx, true);
    r.push_back(rj);
    // (guard on CLKE added below once CLKE exists)
    nl.pull_up(rj, xp.lit(ain[j], true), t.r_rise, 1);
  }

  // ---- strobe core ---------------------------------------------------------
  const NodeId x = nl.add_node(name + ".X", false);
  const NodeId a2 = nl.add_node(name + ".A2", false);
  const NodeId clke = nl.add_node(name + ".CLKE", true);

  // X+: all sense lines discharged (all inputs valid) and all reset
  // switches ready.  X-: once the sense lines are precharged again.
  {
    std::vector<Expr> up;
    for (NodeId vi : vint) up.push_back(xp.lit(vi, false));
    for (NodeId rj : r) up.push_back(xp.lit(rj, true));
    nl.pull_up(x, xp.conj(std::move(up)), t.x_rise, 3);
    std::vector<Expr> down;
    for (NodeId vi : vint) down.push_back(xp.lit(vi, true));
    nl.pull_down(x, xp.disj(std::move(down)), t.x_fall, 1);
  }

  // ACK: buffered pulse.  Rises with X (big driver), self-resets through
  // the pulse stage A2.
  nl.pull_up(ack, xp.conj2(xp.lit(x, true), xp.lit(a2, false)), t.ack_rise, 4);
  nl.pull_down(ack, xp.lit(a2, true), t.ack_fall, 4);
  nl.pull_up(a2, xp.lit(ack, true), t.a2_rise, 1);
  nl.pull_down(a2, xp.conj2(xp.lit(ack, false), xp.lit(x, false)), t.a2_fall, 2);

  // CLKE: inverted follower of ACK (the local clock pulse).
  nl.pull_down(clke, xp.lit(ack, true), t.clke_fall, 2);
  nl.pull_up(clke, xp.lit(ack, false), t.clke_rise, 2);

  // Reset switches: cleared during the CLKE pulse (data launched), set
  // again by the receiver's ACK.
  for (std::size_t j = 0; j < r.size(); ++j) {
    nl.pull_down(r[j], xp.conj2(xp.lit(clke, false), xp.lit(ain[j], false)),
                 t.r_fall, 2);
  }

  // Vint precharge by CLKE plus the weak keeper.
  for (std::size_t i = 0; i < vint.size(); ++i) {
    nl.pull_up(vint[i], xp.lit(clke, false), t.vint_rise, 0);
    nl.pull_up(vint[i], xp.lit(z[i], false), t.vint_rise, 1, /*weak=*/true);
  }

  // Delay line D matching the worst-case logic delay, and the valid
  // modules driving the output VALID lines.
  nl.pull_down(d, xp.lit(clke, false), t.d_fall, 1);
  nl.pull_up(d, xp.lit(clke, true), t.d_rise, 1);
  // Valid module: VALID_out falls when the delayed strobe fires and is
  // raised only after the receiver's acknowledge has been recorded by the
  // reset switch (the partial handshake of Fig. 6).
  for (std::size_t j = 0; j < vout.size(); ++j) {
    nl.pull_down(vout[j], xp.lit(d, false), t.valid_fall, 1);
    nl.pull_up(vout[j], xp.conj2(xp.lit(r[j], true), xp.lit(d, true)),
               t.valid_rise, 0);
  }

  return nl;
}

Module stage_module(const std::string& name, const StageChannels& ch,
                    const StageTiming& timing) {
  return elaborate(make_stage_netlist(name, ch, timing));
}

StageChannels linear_channels(int k) {
  StageChannels ch;
  ch.valid_in = {std::string("V") + std::to_string(k)};
  ch.ack_out = std::string("A") + std::to_string(k);
  ch.valid_out = {std::string("V") + std::to_string(k + 1)};
  ch.ack_in = {std::string("A") + std::to_string(k + 1)};
  return ch;
}

int expected_transistors(int n_inputs, int n_outputs) {
  return 21 + 7 * n_inputs + 4 * n_outputs;
}

}  // namespace rtv::ipcmos
