// Tests for the mempool: fee-priority block packing under a gas limit
// (§II-A), nonce ordering and replacement.
#include <gtest/gtest.h>

#include "eth/mempool.hpp"

namespace ethshard::eth {
namespace {

Transaction make_tx(AccountId sender, std::uint64_t nonce,
                    std::uint64_t gas_price, AccountId to = 999) {
  Transaction tx;
  tx.sender = sender;
  tx.nonce = nonce;
  tx.gas_price = gas_price;
  tx.calls.push_back(Call{sender, to, CallKind::kTransfer, 1});
  return tx;
}

TEST(Mempool, SubmitAndSize) {
  Mempool pool;
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.submit(make_tx(1, 0, 5)));
  EXPECT_TRUE(pool.submit(make_tx(2, 0, 7)));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.contains(1, 0));
  EXPECT_FALSE(pool.contains(1, 1));
}

TEST(Mempool, RejectsMalformed) {
  Mempool pool;
  Transaction bad;
  bad.sender = 1;  // empty trace
  EXPECT_FALSE(pool.submit(std::move(bad)));
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, ReplacementRequiresBetterPrice) {
  Mempool pool;
  EXPECT_TRUE(pool.submit(make_tx(1, 0, 5)));
  EXPECT_FALSE(pool.submit(make_tx(1, 0, 5)));  // equal price
  EXPECT_FALSE(pool.submit(make_tx(1, 0, 4)));  // worse
  EXPECT_TRUE(pool.submit(make_tx(1, 0, 9)));   // better replaces
  EXPECT_EQ(pool.size(), 1u);
  const auto block = pool.pack_block(1'000'000);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].gas_price, 9u);
}

TEST(Mempool, PacksByGasPrice) {
  Mempool pool;
  pool.submit(make_tx(1, 0, 3));
  pool.submit(make_tx(2, 0, 9));
  pool.submit(make_tx(3, 0, 6));
  const auto block = pool.pack_block(10'000'000);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].gas_price, 9u);
  EXPECT_EQ(block[1].gas_price, 6u);
  EXPECT_EQ(block[2].gas_price, 3u);
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, NonceChainsNeverReorder) {
  Mempool pool;
  // Sender 1's nonce-1 tx pays more than its nonce-0 tx, but must still
  // come after it.
  pool.submit(make_tx(1, 0, 2));
  pool.submit(make_tx(1, 1, 50));
  pool.submit(make_tx(2, 0, 10));
  const auto block = pool.pack_block(10'000'000);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].sender, 2u);  // best eligible price
  EXPECT_EQ(block[1].sender, 1u);
  EXPECT_EQ(block[1].nonce, 0u);
  EXPECT_EQ(block[2].nonce, 1u);
}

TEST(Mempool, RespectsGasLimit) {
  Mempool pool;
  for (AccountId s = 1; s <= 10; ++s) pool.submit(make_tx(s, 0, s));
  const std::uint64_t one_tx_gas = transaction_gas(make_tx(1, 0, 1));
  const auto block = pool.pack_block(3 * one_tx_gas);
  EXPECT_EQ(block.size(), 3u);
  EXPECT_EQ(pool.size(), 7u);
  // Highest payers got in.
  EXPECT_EQ(block[0].gas_price, 10u);
  EXPECT_EQ(block[1].gas_price, 9u);
  EXPECT_EQ(block[2].gas_price, 8u);
}

TEST(Mempool, ZeroLimitPacksNothing) {
  Mempool pool;
  pool.submit(make_tx(1, 0, 5));
  EXPECT_TRUE(pool.pack_block(0).empty());
  EXPECT_EQ(pool.size(), 1u);
}

}  // namespace
}  // namespace ethshard::eth
