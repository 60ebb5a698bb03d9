// Blocks: numbered, timestamped batches of transactions.
#pragma once

#include <cstdint>
#include <vector>

#include "eth/transaction.hpp"
#include "util/sim_time.hpp"

namespace ethshard::eth {

/// One block: its number, its timestamp and its transactions in order,
/// which is all the replay reads. Blocks carry no hash and no parent
/// link; Chain orders them by number and timestamp.
struct Block {
  std::uint64_t number = 0;
  util::Timestamp timestamp = 0;
  std::vector<Transaction> transactions;

  friend bool operator==(const Block&, const Block&) = default;
};

}  // namespace ethshard::eth
