#include <gtest/gtest.h>

#include "rtv/ipcmos/stage.hpp"
#include "rtv/ts/dot.hpp"
#include "rtv/ts/gallery.hpp"

namespace rtv {
namespace {

TEST(Dot, TransitionSystemExport) {
  const Module m = gallery::intro_example();
  const std::string dot = to_dot(m.ts());
  EXPECT_NE(dot.find("digraph ts"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("penwidth=2"), std::string::npos);  // initial state
}

TEST(Dot, HighlightAndLimit) {
  const Module m = gallery::intro_example();
  DotOptions opts;
  opts.max_states = 3;
  opts.highlight = {m.ts().initial()};
  const std::string dot = to_dot(m.ts(), opts);
  EXPECT_NE(dot.find("fillcolor=lightgray"), std::string::npos);
  // Only 3 states emitted.
  std::size_t count = 0, pos = 0;
  while ((pos = dot.find("shape", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 1u);  // only in the node default
}

TEST(Dot, NetlistExportShowsStacks) {
  const Netlist nl =
      ipcmos::make_stage_netlist("I1", ipcmos::linear_channels(1));
  const std::string dot = to_dot(nl);
  EXPECT_NE(dot.find("digraph netlist"), std::string::npos);
  EXPECT_NE(dot.find("I1.Vint"), std::string::npos);
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);  // weak keeper
  EXPECT_NE(dot.find("label=\"down"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // input node
}

}  // namespace
}  // namespace rtv
