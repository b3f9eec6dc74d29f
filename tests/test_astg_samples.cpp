// Keeps the .g samples shipped under examples/data/ parseable, elaborable,
// and verifiable — they are the first thing a new user feeds to the CLI.
// RTV_EXAMPLE_DATA_DIR is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <fstream>

#include "engine_support.hpp"
#include "rtv/stg/astg.hpp"
#include "rtv/stg/elaborate.hpp"
#include "rtv/verify/property.hpp"
#include "rtv/verify/refinement.hpp"

namespace rtv {
namespace {

Stg load_sample(const std::string& name) {
  const std::string path = std::string(RTV_EXAMPLE_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return parse_astg(in);
}

TEST(AstgSamples, ToggleParsesAndRoundTrips) {
  const Stg stg = load_sample("toggle.g");
  EXPECT_EQ(stg.name(), "toggle");
  EXPECT_EQ(stg.num_transitions(), 2u);
  const Stg again = parse_astg_string(write_astg(stg));
  EXPECT_EQ(again.num_transitions(), stg.num_transitions());
  EXPECT_EQ(again.num_places(), stg.num_places());
}

TEST(AstgSamples, HandshakeComposesAndVerifies) {
  const Module env = elaborate(load_sample("hs_env.g"));
  const Module dev = elaborate(load_sample("hs_dev.g"));
  EXPECT_EQ(env.ts().num_states(), 4u);
  EXPECT_EQ(dev.ts().num_states(), 4u);

  DeadlockFreedom dead;
  PersistencyProperty pers;
  const EngineResult r = test::decide("refine", {&env, &dev}, {&dead, &pers});
  EXPECT_TRUE(r.verified()) << r.message;
}

}  // namespace
}  // namespace rtv
