#include "core/quorum.hpp"

#include "util/assert.hpp"

namespace dynvote {

bool is_majority_of(const ProcessSet& candidate, const ProcessSet& of) {
  return 2 * candidate.intersection_count(of) > of.count();
}

bool is_subquorum(const ProcessSet& candidate, const ProcessSet& of) {
  DV_REQUIRE(!of.empty(), "subquorum test against an empty set");
  const std::size_t shared = candidate.intersection_count(of);
  const std::size_t total = of.count();
  if (2 * shared > total) return true;
  if (2 * shared == total) return candidate.contains(of.lowest());
  return false;
}

std::size_t arrivals_from(const ProcessSet& arrived,
                          const ProcessSet& members) {
  std::size_t n = 0;
  members.for_each([&](ProcessId q) { n += arrived.contains(q) ? 1 : 0; });
  return n;
}

}  // namespace dynvote
