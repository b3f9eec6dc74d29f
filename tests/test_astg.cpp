#include "rtv/stg/astg.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "rtv/stg/elaborate.hpp"
#include "rtv/stg/library.hpp"

namespace rtv {
namespace {

const char* kToggle = R"(
.model toggle
.outputs x
.graph
x+ x-    # pulse
x- x+
.marking { <x-,x+> }
.end
)";

TEST(Astg, ParsesSimpleCycle) {
  const Stg stg = parse_astg_string(kToggle);
  EXPECT_EQ(stg.name(), "toggle");
  EXPECT_EQ(stg.num_transitions(), 2u);
  EXPECT_EQ(stg.num_places(), 2u);
  const Module m = elaborate(stg);
  EXPECT_EQ(m.ts().num_states(), 2u);
  EXPECT_TRUE(m.ts().event_by_label("x+").valid());
}

TEST(Astg, DelaysAndInitialValues) {
  const Stg stg = parse_astg_string(R"(
.model timed
.outputs x
.initial x
.graph
x- x+
x+ x-
.marking { <x+,x-> }
.delay x- 1 2
.delay x+ 5 inf
.end
)");
  EXPECT_TRUE(stg.initial_value("x"));
  const Module m = elaborate(stg);
  EXPECT_EQ(m.ts().delay(m.ts().event_by_label("x-")), DelayInterval::units(1, 2));
  const DelayInterval up = m.ts().delay(m.ts().event_by_label("x+"));
  EXPECT_EQ(up.lo(), ticks_from_units(5));
  EXPECT_FALSE(up.upper_bounded());
  // Initially high: x- fires first.
  EXPECT_EQ(m.ts().enabled_events(m.ts().initial()).size(), 1u);
  EXPECT_EQ(m.ts().label(m.ts().enabled_events(m.ts().initial())[0]), "x-");
}

TEST(Astg, ExplicitPlacesAndChoice) {
  const Stg stg = parse_astg_string(R"(
.model choice
.inputs a b
.outputs c
.graph
p0 a+ b+
a+ c+
b+ c+/2
c+ p1
c+/2 p1
.marking { p0 }
.end
)");
  // a+ and b+ are in free choice; both lead to a c+ occurrence.
  const Module m = elaborate(stg);
  EXPECT_EQ(m.ts().enabled_events(m.ts().initial()).size(), 2u);
  EXPECT_EQ(stg.num_transitions(), 4u);  // a+, b+, c+, c+/2
}

TEST(Astg, DummiesSupported) {
  const Stg stg = parse_astg_string(R"(
.model dum
.outputs x
.dummy tau
.graph
p0 tau
tau x+
x+ x-
x- p0
.marking { p0 }
.end
)");
  const Module m = elaborate(stg);
  EXPECT_TRUE(m.ts().event_by_label("tau").valid());
}

TEST(Astg, RoundTripPreservesBehaviour) {
  const Stg original = stg_library::make_in("V", "A");
  const std::string text = write_astg(original);
  const Stg parsed = parse_astg_string(text);
  const Module a = elaborate(original);
  const Module b = elaborate(parsed);
  EXPECT_EQ(a.ts().num_states(), b.ts().num_states());
  EXPECT_EQ(a.ts().num_transitions(), b.ts().num_transitions());
  EXPECT_EQ(a.ts().num_events(), b.ts().num_events());
  // Delays survive the round trip.
  EXPECT_EQ(a.ts().delay(a.ts().event_by_label("V-")),
            b.ts().delay(b.ts().event_by_label("V-")));
  // Initial signal values survive.
  EXPECT_EQ(a.ts().valuation(a.ts().initial()).test(a.ts().signal_index("V")),
            b.ts().valuation(b.ts().initial()).test(b.ts().signal_index("V")));

  // Bounds that need more than six significant digits come back exact:
  // [100000.25, 1234567.75] is ticks 400001 and 4938271, and 2^53 + 1
  // ticks is more than a double holds.
  const std::pair<std::string, DelayInterval> wide_bounds[] = {
      {"100000.25 1234567.75", DelayInterval(400001, 4938271)},
      {"1 2251799813685248.25",
       DelayInterval(4, (std::int64_t{1} << 53) + 1)},
  };
  for (const auto& [bounds, delay] : wide_bounds) {
    const Stg wide = parse_astg_string(
        ".model m\n.outputs x\n.graph\nx+ x-\nx- x+\n"
        ".marking { <x-,x+> }\n.delay x+ " + bounds + "\n.end\n");
    const Module w = elaborate(parse_astg_string(write_astg(wide)));
    EXPECT_EQ(w.ts().delay(w.ts().event_by_label("x+")), delay) << bounds;
  }
}

TEST(Astg, RoundTripAllLibraryModels) {
  for (const Stg& stg :
       {stg_library::make_in("V", "A"), stg_library::make_out("V", "A"),
        stg_library::make_ain("V", "A"), stg_library::make_aout("V", "A")}) {
    const std::string text = write_astg(stg);
    const Stg parsed = parse_astg_string(text);
    EXPECT_EQ(elaborate(stg).ts().num_states(),
              elaborate(parsed).ts().num_states())
        << stg.name();
  }
}

TEST(Astg, ErrorsAreReported) {
  EXPECT_THROW(parse_astg_string(".model m\n.graph\nonly_one_token\n.end\n"),
               std::runtime_error);
  EXPECT_THROW(parse_astg_string(
                   ".model m\n.outputs x\n.graph\nx+ x-\nx- x+\n"
                   ".marking { <x-,x+> }\n.delay y+ 1 2\n.end\n"),
               std::runtime_error);
  EXPECT_THROW(parse_astg_string(
                   ".model m\n.outputs x\n.graph\nx+ x-\nx- x+\n"
                   ".marking { nowhere }\n.end\n"),
               std::runtime_error);
  // Bounds that are not finite or lie beyond kTimeInfinity ticks.
  for (const std::string bounds :
       {"1e400 2", "nan 2", "-nan 2", "1 99999999999999999999", "1 1e400",
        "1 nan"}) {
    try {
      parse_astg_string(
          ".model m\n.outputs x\n.graph\nx+ x-\nx- x+\n"
          ".marking { <x-,x+> }\n.delay x+ " + bounds + "\n.end\n");
      ADD_FAILURE() << bounds << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad delay"), std::string::npos)
          << bounds << ": " << e.what();
    }
  }
}

TEST(Astg, MarkingOnExplicitPlace) {
  const Stg stg = parse_astg_string(R"(
.model m
.outputs x
.graph
start x+
x+ start
.marking { start }
.end
)");
  EXPECT_EQ(stg.num_places(), 1u);
  EXPECT_TRUE(stg.initially_marked(PlaceId(0)));
}

}  // namespace
}  // namespace rtv
