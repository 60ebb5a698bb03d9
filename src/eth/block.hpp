// Blocks: numbered, timestamped batches of transactions.
#pragma once

#include <cstdint>
#include <vector>

#include "eth/keccak.hpp"
#include "eth/transaction.hpp"
#include "util/sim_time.hpp"

namespace ethshard::eth {

/// One block. The workload producers and Chain never hash blocks and
/// leave parent_hash zero; hash() and parent_hash serve the consensus
/// substrate (BlockTree, pow), which links blocks itself.
struct Block {
  std::uint64_t number = 0;
  util::Timestamp timestamp = 0;
  Hash256 parent_hash{};
  std::vector<Transaction> transactions;

  /// Keccak-256 commitment over the transaction list (a flat analogue of
  /// Ethereum's transactions-trie root).
  Hash256 transactions_root() const;

  /// Header hash: keccak(number, timestamp, parent_hash, transactions_root).
  Hash256 hash() const;
};

}  // namespace ethshard::eth
