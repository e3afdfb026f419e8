// Sibling ASes: different AS numbers under one administrative organization.
//
// §4 challenge 5: siblings confuse connectivity inference. bdrmap takes a
// manually-curated sibling list for the VP's network (§5.2 "VP ASes") and an
// AS-to-organization mapping for everything else. Both are represented here.
#pragma once

#include <unordered_map>
#include <vector>

#include "netbase/ids.h"

namespace bdrmap::asdata {

using net::AsId;
using net::OrgId;

class SiblingTable {
 public:
  // Assigns `as` to organization `org`. An AS belongs to at most one org;
  // re-assignment overwrites (mirrors stale WHOIS updates).
  void assign(AsId as, OrgId org);

  // Organization of `as`; invalid OrgId when unknown.
  OrgId org_of(AsId as) const;

  // True iff both ASes are known and share an organization. An AS is always
  // its own sibling.
  bool are_siblings(AsId a, AsId b) const;

  // All ASes recorded for `org` (sorted).
  std::vector<AsId> members(OrgId org) const;

  // The sibling set of `as` including itself; just {as} when unknown.
  std::vector<AsId> siblings_of(AsId as) const;

  // The lowest AS of `as`'s sibling set (siblings_of(as).front()) without
  // copying the set: one representative per organization.
  AsId representative(AsId as) const;

  std::size_t size() const { return as_to_org_.size(); }

 private:
  std::unordered_map<AsId, OrgId> as_to_org_;
  std::unordered_map<OrgId, std::vector<AsId>> org_to_as_;
};

}  // namespace bdrmap::asdata
