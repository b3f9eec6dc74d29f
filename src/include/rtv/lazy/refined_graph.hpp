// The explored part of a refined system, kept across refinement iterations.
//
// Between two changes of the refined-state encoding the successor function
// of a RefinedSystem is fixed: advance() reads the activated pairs only
// through "any pair active", and activate_pair() only adds *blocking*.  So
// a graph of interned states with memoised successors stays valid while
// pairs accumulate; a search calls advance() only for edges it never
// expanded.  Adding an observer, or activating the first pair, changes the
// encoding and drops every state.
//
// Blocking is memoised per edge too.  Between two drops it only grows:
// pairs are only ever added, and blocked(s, e)'s age rule reads only the
// pairs (x before e).  So an edge found blocked stays blocked, and an edge
// found unblocked is re-decided only once its event has gained a pair.
//
// Layout (the flat, interned, successor-memoising zone graph idiom):
//   * each state is one packed uint16 record — base id, the lengths of
//     codes, order and gaps, then their entries — interned once in a
//     RecordTable (rtv/base/open_table.hpp), which numbers the states;
//   * successors are one int32 slot per base transition of the state's
//     base state, in one CSR array; kUnexpanded until first used; beside
//     each slot one uint16 blocking memo: undecided, blocked, or the
//     event's pair count (plus one) when last found unblocked;
//   * each state also gets a dense *key id* naming its (base, codes, order)
//     — the record minus its gaps — interned in a second table, so a
//     search can group states that differ only in their gap matrix, and
//     the sum of its gaps, which rules out most entry-wise comparisons.
//
// Views returned by state() point into the table and dangle once a
// successor() or intern() interns a new state: re-fetch by id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rtv/base/open_table.hpp"
#include "rtv/lazy/refined_system.hpp"

namespace rtv {

class RefinedGraph {
 public:
  static constexpr std::int32_t kUnexpanded = -1;

  explicit RefinedGraph(const RefinedSystem& sys);

  const TransitionSystem& base() const { return sys_->base(); }
  const RefinedSystem& system() const { return *sys_; }

  /// Drop every state if the system's encoding changed since the graph
  /// was filled (an observer added, or the first pair activated).
  void sync();
  /// Moves whenever the graph drops its states or decides an edge
  /// blocked, and starts from a value no other graph starts from.  While
  /// it stands still, ids, successors and the blocking memo are as a
  /// client last saw them.
  std::uint64_t changes() const { return changes_; }

  /// Number of interned states; ids are 0 .. size() - 1 in interning order.
  std::size_t size() const { return records_.size(); }

  /// Id of the system's initial state, interned on first use.
  std::int32_t initial();

  /// Id of `s` (a state of the system's current encoding), interned on
  /// first use.  Returns {id, newly interned}.
  std::pair<std::int32_t, bool> intern(const RefinedState& s);

  RefinedStateView state(std::int32_t id) const;
  StateId base_state(std::int32_t id) const;

  /// Number of distinct (base, codes, order) keys among the interned
  /// states; key ids are 0 .. num_keys() - 1 in first-interning order.
  std::size_t num_keys() const { return keys_.size(); }
  /// Key id of state `id`: equal for two states iff they differ at most in
  /// their gaps.
  std::int32_t key(std::int32_t id) const {
    return key_[static_cast<std::size_t>(id)];
  }
  /// Sum of state `id`'s encoded gaps, saturated at 2^32 - 1: entry-wise
  /// <= between two gap matrices implies <= between their sums.
  std::uint32_t gap_sum(std::int32_t id) const {
    return gap_sum_[static_cast<std::size_t>(id)];
  }

  /// True iff firing `e` from state `id` is blocked right now.
  bool blocked(std::int32_t id, EventId e) const {
    return sys_->blocked(state(id), e);
  }

  /// Same for base transition `k` of state `id` (an index into
  /// base().transitions_from(base_state(id))), memoised per edge.
  bool blocked_edge(std::int32_t id, std::size_t k);
  /// True iff blocked_edge(id, k) has answered true since the last drop:
  /// such an edge stays blocked.  Reads the memo only.
  bool known_blocked(std::int32_t id, std::size_t k) const;

  /// Target of base transition `k` (an index into
  /// base().transitions_from(base_state(id))), which must not be blocked:
  /// advanced and interned on first use.  Returns {target, newly interned}.
  std::pair<std::int32_t, bool> successor(std::int32_t id, std::size_t k);

 private:
  using Tag = std::pair<std::size_t, bool>;
  using Records = RecordTable<std::uint16_t>;

  Tag current_tag() const;

  const RefinedSystem* sys_;
  Tag tag_;
  std::uint64_t changes_;
  std::int32_t initial_ = kUnexpanded;
  Records records_;                  ///< the states' records, by id
  Records keys_;                     ///< the keys' words, by key id
  std::vector<std::int32_t> key_;    ///< key id per state
  std::vector<std::uint32_t> gap_sum_;  ///< gap_sum() per state
  std::vector<std::size_t> slots_;   ///< offset into succ_ per state
  std::vector<std::int32_t> succ_;
  std::vector<std::uint16_t> memo_;  ///< blocking memo per succ_ slot
  RefinedState scratch_;  ///< advance() target, reused
  std::vector<std::uint16_t> packed_;  ///< intern()'s candidate record, reused
};

}  // namespace rtv
