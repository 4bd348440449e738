// Dynamic linear voting quorum rules (thesis §3, Figure 3-4).
//
// SUBQUORUM(X, Y): X is a subquorum of Y iff more than half of Y's members
// are in X, or exactly half are and the lexically smallest member of Y is
// among them.  The tie-break makes dynamic *linear* voting admit a group
// containing exactly half of the previous primary.
#pragma once

#include "core/process_set.hpp"

namespace dynvote {

/// Strict majority: |X ∩ Y| > |Y| / 2.
bool is_majority_of(const ProcessSet& candidate, const ProcessSet& of);

/// Dynamic linear voting subquorum test, including the exact-half lexical
/// tie-break.  `of` must be non-empty.
bool is_subquorum(const ProcessSet& candidate, const ProcessSet& of);

/// Running quorum count (the libpaxos quorum_add idiom).  Records `sender`
/// in `arrived` and returns true exactly on the first arrival of a member
/// of `members`.  A counter bumped on every true stays equal to
/// |arrived ∩ members|, so "heard from every member" and "heard from a
/// majority" are integer compares against the view's size instead of
/// whole-set compares on every arrival.  The set stays: it suppresses
/// duplicates and it is what a snapshot holds.
inline bool add_arrival(ProcessSet& arrived, ProcessId sender,
                        const ProcessSet& members) {
  const bool first = members.contains(sender) && !arrived.contains(sender);
  arrived.insert(sender);
  return first;
}

/// |arrived ∩ members|: the running count add_arrival maintains, recomputed
/// from the set (after a snapshot restore).  Never throws on a universe
/// mismatch, so a hostile snapshot still fails only where it is decoded.
std::size_t arrivals_from(const ProcessSet& arrived, const ProcessSet& members);

}  // namespace dynvote
