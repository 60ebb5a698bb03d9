// Transactions and their internal call traces.
//
// §II-B: "Accounts and contracts can call each other in specific ways in a
// transaction, and a transaction can lead to multiple calls to different
// accounts and contracts." A Transaction therefore carries its full call
// trace in execution order; the graph builder turns every call into a
// directed edge caller → callee.
#pragma once

#include <cstdint>
#include <vector>

#include "eth/address.hpp"
#include "util/sim_time.hpp"

namespace ethshard::eth {

/// What a call does; all three create a graph edge.
enum class CallKind : std::uint8_t {
  kTransfer,        ///< plain ether transfer to an account
  kContractCall,    ///< activates a contract (message call)
  kContractCreate,  ///< deploys a new contract (callee is the new contract)
};

/// One edge-producing interaction inside a transaction.
struct Call {
  AccountId from = 0;
  AccountId to = 0;
  CallKind kind = CallKind::kTransfer;
  /// Ether moved, in wei (0 for pure message calls).
  std::uint64_t value_wei = 0;

  friend bool operator==(const Call&, const Call&) = default;
};

/// A signed transaction with its execution trace.
///
/// calls.front() is the top-level action (from == sender); subsequent
/// entries are internal calls made by contracts during execution.
struct Transaction {
  AccountId sender = 0;
  std::uint64_t nonce = 0;
  std::uint64_t gas_limit = 21000;
  std::uint64_t gas_price = 1;
  std::vector<Call> calls;

  /// True iff the trace is structurally well-formed: non-empty, the first
  /// call originates at the sender, and every internal call originates at
  /// an account already touched (sender or a previous callee) — a contract
  /// cannot act before being entered.
  bool well_formed() const;

  friend bool operator==(const Transaction&, const Transaction&) = default;
};

}  // namespace ethshard::eth
