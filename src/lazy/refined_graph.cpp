#include "rtv/lazy/refined_graph.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>

#include "rtv/base/hash.hpp"

namespace rtv {

namespace {

// blocked_edge()'s memo words: kUndecided, kBlockedEdge, or one plus the
// fired event's pair count when the edge was last found unblocked (at
// most 0x8001: event ids are 15-bit).
constexpr std::uint16_t kUndecided = 0;
constexpr std::uint16_t kBlockedEdge = 0xffff;

// Record header: base id and the lengths of codes, order and gaps, each
// as two uint16 words (low, high).
constexpr std::size_t kHeaderWords = 8;

void put32(std::vector<std::uint16_t>& a, std::size_t v) {
  a.push_back(static_cast<std::uint16_t>(v & 0xffffu));
  a.push_back(static_cast<std::uint16_t>((v >> 16) & 0xffffu));
}

std::size_t get32(const std::uint16_t* p) {
  return static_cast<std::size_t>(p[0]) | (static_cast<std::size_t>(p[1]) << 16);
}

std::size_t record_words(const std::uint16_t* rec) {
  return kHeaderWords + get32(rec + 2) + get32(rec + 4) + get32(rec + 6);
}

/// One pass over the record, four words per mix.
std::size_t hash_record(const std::uint16_t* rec, std::size_t words) {
  std::size_t h = words;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4)
    h = hash_mix(h, static_cast<std::uint64_t>(rec[i]) |
                        (static_cast<std::uint64_t>(rec[i + 1]) << 16) |
                        (static_cast<std::uint64_t>(rec[i + 2]) << 32) |
                        (static_cast<std::uint64_t>(rec[i + 3]) << 48));
  for (; i < words; ++i) h = hash_mix(h, rec[i]);
  return h;
}

/// First changes() value of a new graph: 2^32 apart for every graph this
/// process constructs, so a search kept for a destroyed graph never
/// resumes on a new one that happens to reuse its address.
std::uint64_t first_change() {
  static std::atomic<std::uint64_t> graphs{0};
  return (graphs.fetch_add(1, std::memory_order_relaxed) + 1) << 32;
}

}  // namespace

RefinedGraph::RefinedGraph(const RefinedSystem& sys)
    : sys_(&sys), tag_(current_tag()), changes_(first_change()) {}

RefinedGraph::Tag RefinedGraph::current_tag() const {
  return {sys_->num_observers(), sys_->num_active_pairs() > 0};
}

void RefinedGraph::sync() {
  const Tag now = current_tag();
  if (now == tag_) return;
  tag_ = now;
  ++changes_;
  initial_ = kUnexpanded;
  arena_.clear();
  record_.clear();
  hash_.clear();
  key_.clear();
  gap_sum_.clear();
  slots_.clear();
  succ_.clear();
  memo_.clear();
  key_hash_.clear();
  key_state_.clear();
  table_.clear();
  key_table_.clear();
}

std::int32_t RefinedGraph::initial() {
  assert(tag_ == current_tag());
  if (initial_ == kUnexpanded) initial_ = intern(sys_->initial()).first;
  return initial_;
}

RefinedStateView RefinedGraph::state(std::int32_t id) const {
  const std::uint16_t* rec = arena_.data() + record_[static_cast<std::size_t>(id)];
  const std::size_t nc = get32(rec + 2), no = get32(rec + 4), ng = get32(rec + 6);
  const std::uint16_t* p = rec + kHeaderWords;
  return RefinedStateView(
      StateId(static_cast<StateId::underlying_type>(get32(rec))),
      std::span<const std::uint16_t>(p, nc),
      std::span<const std::uint16_t>(p + nc, no),
      std::span<const std::uint16_t>(p + nc + no, ng));
}

StateId RefinedGraph::base_state(std::int32_t id) const {
  return StateId(static_cast<StateId::underlying_type>(
      get32(arena_.data() + record_[static_cast<std::size_t>(id)])));
}

bool RefinedGraph::blocked_edge(std::int32_t id, std::size_t k) {
  assert(tag_ == current_tag());
  std::uint16_t& memo = memo_[slots_[static_cast<std::size_t>(id)] + k];
  if (memo == kBlockedEdge) return true;
  const EventId e = base().transitions_from(base_state(id))[k].event;
  const auto version =
      static_cast<std::uint16_t>(sys_->num_pairs_before(e) + 1);
  if (memo == version) return false;
  if (!blocked(id, e)) {
    memo = version;
    return false;
  }
  memo = kBlockedEdge;
  ++changes_;
  return true;
}

bool RefinedGraph::known_blocked(std::int32_t id, std::size_t k) const {
  return memo_[slots_[static_cast<std::size_t>(id)] + k] == kBlockedEdge;
}

std::pair<std::int32_t, bool> RefinedGraph::successor(std::int32_t id,
                                                      std::size_t k) {
  assert(tag_ == current_tag());
  const std::size_t slot = slots_[static_cast<std::size_t>(id)] + k;
  if (succ_[slot] != kUnexpanded) return {succ_[slot], false};
  const StateId b = base_state(id);
  sys_->advance(state(id), base().transitions_from(b)[k].event, &scratch_);
  const auto result = intern(scratch_);  // may grow arena_ and succ_
  succ_[slot] = result.first;
  return result;
}

std::pair<std::int32_t, bool> RefinedGraph::intern(const RefinedState& s) {
  // Pack the candidate at the arena's tail; drop it again if known.
  const std::size_t off = arena_.size();
  put32(arena_, s.base.value());
  put32(arena_, s.codes.size());
  put32(arena_, s.order.size());
  put32(arena_, s.gaps.size());
  arena_.insert(arena_.end(), s.codes.begin(), s.codes.end());
  arena_.insert(arena_.end(), s.order.begin(), s.order.end());
  arena_.insert(arena_.end(), s.gaps.begin(), s.gaps.end());
  const std::size_t words = arena_.size() - off;
  const std::size_t h = hash_record(arena_.data() + off, words);

  const std::size_t i = table_.find(h, [&](std::int32_t id) {
    const std::size_t other = record_[static_cast<std::size_t>(id)];
    return hash_[static_cast<std::size_t>(id)] == h &&
           record_words(arena_.data() + other) == words &&
           std::equal(arena_.begin() + static_cast<std::ptrdiff_t>(off),
                      arena_.end(),
                      arena_.begin() + static_cast<std::ptrdiff_t>(other));
  });
  if (table_.at(i) >= 0) {
    arena_.resize(off);
    return {table_.at(i), false};
  }

  const auto id = static_cast<std::int32_t>(record_.size());
  record_.push_back(off);
  hash_.push_back(h);
  table_.fill(i, id, hash_);
  key_.push_back(intern_key(id));
  std::uint64_t sum = 0;
  for (std::uint16_t g : s.gaps) sum += g;
  gap_sum_.push_back(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(sum, std::numeric_limits<std::uint32_t>::max())));
  slots_.push_back(succ_.size());
  succ_.resize(succ_.size() + base().transitions_from(s.base).size(),
               kUnexpanded);
  memo_.resize(succ_.size(), kUndecided);
  return {id, true};
}

std::int32_t RefinedGraph::intern_key(std::int32_t id) {
  // The key is the record up to its gaps: the header (whose gap length
  // follows from the order) plus codes and order.
  const std::uint16_t* rec = arena_.data() + record_[static_cast<std::size_t>(id)];
  const std::size_t words = kHeaderWords + get32(rec + 2) + get32(rec + 4);
  const std::size_t h = hash_record(rec, words);
  const std::size_t i = key_table_.find(h, [&](std::int32_t k) {
    const std::uint16_t* other =
        arena_.data() + record_[static_cast<std::size_t>(
                            key_state_[static_cast<std::size_t>(k)])];
    return key_hash_[static_cast<std::size_t>(k)] == h &&
           std::equal(rec, rec + words, other);
  });
  if (key_table_.at(i) >= 0) return key_table_.at(i);
  const auto k = static_cast<std::int32_t>(key_hash_.size());
  key_hash_.push_back(h);
  key_state_.push_back(id);
  key_table_.fill(i, k, key_hash_);
  return k;
}

}  // namespace rtv
