// Property sweep over random marked graphs (conflict-free Petri nets):
// elaboration terminates, markings stay 1-safe, the marking count is
// bounded, liveness of the cycle is preserved, and the astg round trip is
// behaviour-preserving.
#include <gtest/gtest.h>

#include "rtv/base/rng.hpp"
#include "rtv/stg/astg.hpp"
#include "rtv/stg/elaborate.hpp"

namespace rtv {
namespace {

/// Random strongly-connected marked graph: a ring of alternating signal
/// transitions with random chord places (each chord from t_i to t_j with a
/// token iff j <= i, keeping every cycle marked).
Stg random_marked_graph(Rng& rng, int n_signals) {
  Stg stg("random");
  std::vector<std::size_t> ring;
  for (int s = 0; s < n_signals; ++s) {
    const std::string name = std::string("s").append(std::to_string(s));
    ring.push_back(stg.add_transition(name, true));
    ring.push_back(stg.add_transition(name, false));
  }
  // Ring places: token on the closing edge.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const std::size_t j = (i + 1) % ring.size();
    stg.chain(ring[i], ring[j], /*initially_marked=*/j == 0);
  }
  // Random chords (forward chords unmarked, backward chords marked so
  // every cycle carries a token).
  const int n_chords = static_cast<int>(rng.below(3));
  for (int c = 0; c < n_chords; ++c) {
    const std::size_t i = rng.below(ring.size());
    const std::size_t j = rng.below(ring.size());
    if (i == j) continue;
    stg.chain(ring[i], ring[j], /*initially_marked=*/j <= i);
  }
  return stg;
}

class StgRandom : public ::testing::TestWithParam<int> {};

TEST_P(StgRandom, ElaborationBoundedAndLive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 11);
  const int n_signals = 1 + static_cast<int>(rng.below(3));
  const Stg stg = random_marked_graph(rng, n_signals);
  const Module m = elaborate(stg);

  // 1-safety held (no throw); markings bounded by 2^places.
  EXPECT_LE(m.ts().num_states(), std::size_t{1} << stg.num_places());
  // Marked graphs with every cycle marked are deadlock-free.
  for (StateId s : m.ts().reachable_states()) {
    EXPECT_FALSE(m.ts().enabled_events(s).empty());
  }
  // Signal consistency: every state has exactly one of s+ / s- enabled-or-
  // pending semantics encoded in valuations; check values alternate by
  // construction (elaborate would have thrown otherwise).
  SUCCEED();
}

TEST_P(StgRandom, AstgRoundTripPreservesStateGraph) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 16807 + 5);
  const int n_signals = 1 + static_cast<int>(rng.below(3));
  const Stg stg = random_marked_graph(rng, n_signals);
  const Stg back = parse_astg_string(write_astg(stg));
  const Module a = elaborate(stg);
  const Module b = elaborate(back);
  EXPECT_EQ(a.ts().num_states(), b.ts().num_states());
  EXPECT_EQ(a.ts().num_transitions(), b.ts().num_transitions());
  EXPECT_EQ(a.ts().num_events(), b.ts().num_events());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StgRandom, ::testing::Range(0, 20));

}  // namespace
}  // namespace rtv
