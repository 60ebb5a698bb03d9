// Account identities and the account registry.
//
// Vertices in the blockchain graph are accounts (externally owned) and
// smart contracts (§II-B). The library identifies both by dense uint64
// ids, which double as graph vertex ids.
#pragma once

#include <cstdint>
#include <vector>

#include "util/sim_time.hpp"

namespace ethshard::eth {

/// Dense vertex/account identifier used throughout the library.
using AccountId = std::uint64_t;

/// Whether the account is a user key pair or deployed code.
enum class AccountKind : std::uint8_t {
  kExternallyOwned,  ///< full-line node in the paper's Fig. 2
  kContract,         ///< dashed-line node in the paper's Fig. 2
};

/// Behavioural archetype of a contract (how the workload generator drives
/// it); kGeneric for externally owned accounts and unclassified contracts.
enum class ContractArchetype : std::uint8_t {
  kGeneric,   ///< default call-cascade behaviour
  kToken,     ///< ERC-20-style: activations emit 1-2 transfers
  kExchange,  ///< long-lived hub touching many distinct accounts
  kIco,       ///< crowdsale: extremely hot for a few weeks, then dead
};

/// Metadata for one account or contract.
struct AccountInfo {
  AccountId id = 0;
  AccountKind kind = AccountKind::kExternallyOwned;
  util::Timestamp created_at = 0;
  /// Storage footprint proxy (32-byte slots); relevant to the paper's
  /// observation that moving a contract means moving its whole storage.
  std::uint64_t storage_slots = 0;
  ContractArchetype archetype = ContractArchetype::kGeneric;
};

/// Append-only directory of every account/contract ever seen. Ids are
/// dense: the i-th created account has id i, so the registry doubles as
/// the graph's vertex universe.
class AccountRegistry {
 public:
  /// Registers a new account and returns its id.
  AccountId create(AccountKind kind, util::Timestamp created_at,
                   std::uint64_t storage_slots = 0,
                   ContractArchetype archetype = ContractArchetype::kGeneric);

  std::size_t size() const { return accounts_.size(); }
  bool contains(AccountId id) const { return id < accounts_.size(); }

  /// Precondition: contains(id).
  const AccountInfo& info(AccountId id) const;

  /// Precondition: contains(id). Grows a contract's storage footprint.
  void add_storage(AccountId id, std::uint64_t slots);

  /// Number of registered contracts (the rest are externally owned).
  std::size_t contract_count() const { return contract_count_; }

  const std::vector<AccountInfo>& all() const { return accounts_; }

 private:
  std::vector<AccountInfo> accounts_;
  std::size_t contract_count_ = 0;
};

}  // namespace ethshard::eth
