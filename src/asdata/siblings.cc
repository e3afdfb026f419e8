#include "asdata/siblings.h"

#include <algorithm>

namespace bdrmap::asdata {

void SiblingTable::assign(AsId as, OrgId org) {
  auto it = as_to_org_.find(as);
  if (it != as_to_org_.end()) {
    if (it->second == org) return;
    auto& old_members = org_to_as_[it->second];
    old_members.erase(std::remove(old_members.begin(), old_members.end(), as),
                      old_members.end());
    it->second = org;
  } else {
    as_to_org_.emplace(as, org);
  }
  auto& members = org_to_as_[org];
  members.push_back(as);
  std::sort(members.begin(), members.end());
}

OrgId SiblingTable::org_of(AsId as) const {
  auto it = as_to_org_.find(as);
  return it == as_to_org_.end() ? OrgId{} : it->second;
}

bool SiblingTable::are_siblings(AsId a, AsId b) const {
  if (a == b) return true;
  OrgId oa = org_of(a);
  return oa.valid() && oa == org_of(b);
}

std::vector<AsId> SiblingTable::members(OrgId org) const {
  auto it = org_to_as_.find(org);
  return it == org_to_as_.end() ? std::vector<AsId>{} : it->second;
}

std::vector<AsId> SiblingTable::siblings_of(AsId as) const {
  OrgId org = org_of(as);
  if (!org.valid()) return {as};
  return members(org);
}

AsId SiblingTable::representative(AsId as) const {
  OrgId org = org_of(as);
  if (!org.valid()) return as;
  auto it = org_to_as_.find(org);
  return it == org_to_as_.end() || it->second.empty() ? as
                                                       : it->second.front();
}

}  // namespace bdrmap::asdata
