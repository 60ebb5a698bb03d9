#include "eth/address.hpp"

#include "util/check.hpp"

namespace ethshard::eth {

AccountId AccountRegistry::create(AccountKind kind,
                                  util::Timestamp created_at,
                                  std::uint64_t storage_slots,
                                  ContractArchetype archetype) {
  const AccountId id = accounts_.size();
  accounts_.push_back(
      AccountInfo{id, kind, created_at, storage_slots, archetype});
  if (kind == AccountKind::kContract) ++contract_count_;
  return id;
}

const AccountInfo& AccountRegistry::info(AccountId id) const {
  ETHSHARD_CHECK(contains(id));
  return accounts_[id];
}

void AccountRegistry::add_storage(AccountId id, std::uint64_t slots) {
  ETHSHARD_CHECK(contains(id));
  accounts_[id].storage_slots += slots;
}

}  // namespace ethshard::eth
