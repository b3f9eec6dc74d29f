#include "rtv/lazy/refined_graph.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>

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
  records_.clear();
  keys_.clear();
  key_.clear();
  gap_sum_.clear();
  slots_.clear();
  succ_.clear();
  memo_.clear();
}

std::int32_t RefinedGraph::initial() {
  assert(tag_ == current_tag());
  if (initial_ == kUnexpanded) initial_ = intern(sys_->initial()).first;
  return initial_;
}

RefinedStateView RefinedGraph::state(std::int32_t id) const {
  const std::uint16_t* rec = records_.record(id).data();
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
      get32(records_.record(id).data())));
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
  const auto result = intern(scratch_);  // may grow records_ and succ_
  succ_[slot] = result.first;
  return result;
}

std::pair<std::int32_t, bool> RefinedGraph::intern(const RefinedState& s) {
  packed_.clear();
  put32(packed_, s.base.value());
  put32(packed_, s.codes.size());
  put32(packed_, s.order.size());
  put32(packed_, s.gaps.size());
  packed_.insert(packed_.end(), s.codes.begin(), s.codes.end());
  packed_.insert(packed_.end(), s.order.begin(), s.order.end());
  packed_.insert(packed_.end(), s.gaps.begin(), s.gaps.end());
  const std::size_t h = Records::hash(packed_.data(), packed_.size());
  const Records::Probe p = records_.probe(packed_.data(), packed_.size(), h);
  if (p.id >= 0) return {p.id, false};
  const std::int32_t id = records_.insert(p, packed_.data(), packed_.size(), h);

  // The key is the record up to its gaps: the header (whose gap length
  // follows from the order) plus codes and order.
  const std::size_t key_words = kHeaderWords + s.codes.size() + s.order.size();
  const std::size_t kh = Records::hash(packed_.data(), key_words);
  const Records::Probe kp = keys_.probe(packed_.data(), key_words, kh);
  key_.push_back(kp.id >= 0 ? kp.id
                            : keys_.insert(kp, packed_.data(), key_words, kh));

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

}  // namespace rtv
