#include "ulpdream/serve/lease_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace ulpdream::serve {

LeaseTable::LeaseTable(std::size_t item_count, std::size_t lease_items,
                       Clock::duration ttl)
    : item_count_(item_count), lease_items_(lease_items), ttl_(ttl) {
  if (item_count == 0) {
    throw std::invalid_argument("LeaseTable: item_count must be > 0");
  }
  if (lease_items == 0) {
    throw std::invalid_argument("LeaseTable: lease_items must be > 0");
  }
  pending_.push_back(Range{0, item_count});
}

bool LeaseTable::grant(const std::string& owner, Clock::time_point now,
                       Lease& out) {
  while (!pending_.empty()) {
    Range range = pending_.front();
    pending_.pop_front();
    // Work completed under another lease while this range sat in the
    // pool must not be re-run.
    range.begin = skip_done(range.begin, range.end);
    if (range.begin >= range.end) continue;

    std::size_t end = std::min(range.end, range.begin + lease_items_);
    // Never grant across a done interval sitting mid-range: clip there
    // and let the next grant's skip step hop over it.
    const auto next_done = done_.upper_bound(range.begin);
    if (next_done != done_.end() && next_done->first < end) {
      end = next_done->first;
    }
    if (end < range.end) {
      // Remainder goes back to the FRONT so the next grant continues
      // contiguously instead of jumping across the pool.
      pending_.push_front(Range{end, range.end});
    }
    out = Lease{next_id_++, range.begin, end, owner, now + ttl_};
    active_.emplace(out.id, out);
    return true;
  }
  return false;
}

bool LeaseTable::complete(std::uint64_t lease_id) {
  const auto it = active_.find(lease_id);
  if (it == active_.end()) return false;
  mark_done(it->second.begin, it->second.end);
  active_.erase(it);
  return true;
}

void LeaseTable::complete_range(std::size_t begin, std::size_t end) {
  if (begin >= end || end > item_count_) {
    throw std::invalid_argument(
        "LeaseTable::complete_range: bad range [" + std::to_string(begin) +
        ", " + std::to_string(end) + ") of " + std::to_string(item_count_) +
        " items");
  }
  mark_done(begin, end);
}

bool LeaseTable::renew(std::uint64_t lease_id, Clock::time_point now) {
  const auto it = active_.find(lease_id);
  if (it == active_.end()) return false;
  it->second.deadline = now + ttl_;
  return true;
}

std::vector<LeaseTable::Lease> LeaseTable::expire_due(Clock::time_point now) {
  std::vector<Lease> expired;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.deadline <= now) {
      expired.push_back(it->second);
      pending_.push_front(Range{it->second.begin, it->second.end});
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

std::vector<LeaseTable::Lease> LeaseTable::revoke_owner(
    const std::string& owner) {
  std::vector<Lease> revoked;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.owner == owner) {
      revoked.push_back(it->second);
      pending_.push_front(Range{it->second.begin, it->second.end});
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  return revoked;
}

void LeaseTable::mark_done(std::size_t begin, std::size_t end) {
  // Absorb every done interval that touches [begin, end), widening the
  // range and subtracting already-counted coverage so overlaps (stale
  // duplicate results) are counted once.
  std::size_t covered = 0;
  auto it = done_.upper_bound(begin);
  if (it != done_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) it = prev;
  }
  while (it != done_.end() && it->first <= end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second);
    covered += it->second - it->first;
    it = done_.erase(it);
  }
  done_.emplace(begin, end);
  items_done_ += (end - begin) - covered;
}

std::size_t LeaseTable::skip_done(std::size_t begin, std::size_t end) const {
  auto it = done_.upper_bound(begin);
  if (it != done_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) begin = std::min(prev->second, end);
  }
  return begin;
}

}  // namespace ulpdream::serve
