// The canonical chain: an append-only, numbered and time-ordered sequence
// of blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "eth/block.hpp"

namespace ethshard::eth {

/// Append-only blockchain with structural validation on append.
///
/// Invariants maintained:
///  * block numbers are consecutive starting at 0 (genesis);
///  * timestamps are non-decreasing.
///
/// Number and timestamp order are the whole link between blocks: no
/// replay metric reads a block hash, so blocks carry none.
class Chain {
 public:
  /// Appends a block after checking its number and timestamp. Throws
  /// util::CheckFailure if the block does not extend the chain.
  void append(Block block);

  std::size_t size() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }

  /// Precondition: number < size().
  const Block& block(std::uint64_t number) const;
  const Block& last() const;

  const std::vector<Block>& blocks() const { return blocks_; }

  /// Re-validates the whole chain from genesis (numbering, timestamp
  /// monotonicity, transaction well-formedness). Returns true iff every
  /// invariant holds. O(total transactions).
  bool validate() const;

  /// Total transactions across all blocks.
  std::uint64_t transaction_count() const { return tx_count_; }

 private:
  std::vector<Block> blocks_;
  std::uint64_t tx_count_ = 0;
};

}  // namespace ethshard::eth
