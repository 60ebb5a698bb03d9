// Unit tests for the blockchain data model: the account registry,
// transactions, block equality, and chain ordering and validation.
#include <gtest/gtest.h>

#include "eth/address.hpp"
#include "eth/block.hpp"
#include "eth/chain.hpp"
#include "eth/transaction.hpp"
#include "util/check.hpp"

namespace ethshard::eth {
namespace {

// -------------------------------------------------------------- accounts

TEST(AccountRegistry, DenseIds) {
  AccountRegistry reg;
  EXPECT_EQ(reg.create(AccountKind::kExternallyOwned, 100), 0u);
  EXPECT_EQ(reg.create(AccountKind::kContract, 200, 16), 1u);
  EXPECT_EQ(reg.create(AccountKind::kExternallyOwned, 300), 2u);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.contract_count(), 1u);
  EXPECT_EQ(reg.info(1).kind, AccountKind::kContract);
  EXPECT_EQ(reg.info(1).created_at, 200);
  EXPECT_EQ(reg.info(1).storage_slots, 16u);
}

TEST(AccountRegistry, StorageGrowth) {
  AccountRegistry reg;
  const AccountId c = reg.create(AccountKind::kContract, 0, 4);
  reg.add_storage(c, 10);
  EXPECT_EQ(reg.info(c).storage_slots, 14u);
}

TEST(AccountRegistry, OutOfRangeThrows) {
  AccountRegistry reg;
  EXPECT_THROW(reg.info(0), util::CheckFailure);
}

// ----------------------------------------------------------- transaction

Transaction simple_transfer(AccountId from, AccountId to) {
  Transaction tx;
  tx.sender = from;
  tx.calls.push_back(Call{from, to, CallKind::kTransfer, 100});
  return tx;
}

TEST(Transaction, WellFormedTransfer) {
  EXPECT_TRUE(simple_transfer(1, 2).well_formed());
}

TEST(Transaction, EmptyTraceIsMalformed) {
  Transaction tx;
  tx.sender = 1;
  EXPECT_FALSE(tx.well_formed());
}

TEST(Transaction, FirstCallMustOriginateAtSender) {
  Transaction tx;
  tx.sender = 1;
  tx.calls.push_back(Call{2, 3, CallKind::kTransfer, 0});
  EXPECT_FALSE(tx.well_formed());
}

TEST(Transaction, InternalCallsMustChainFromTouchedAccounts) {
  Transaction tx;
  tx.sender = 1;
  tx.calls.push_back(Call{1, 2, CallKind::kContractCall, 0});
  tx.calls.push_back(Call{2, 3, CallKind::kTransfer, 5});   // ok: 2 touched
  tx.calls.push_back(Call{3, 4, CallKind::kContractCall, 0});  // ok: 3 touched
  EXPECT_TRUE(tx.well_formed());
  tx.calls.push_back(Call{9, 1, CallKind::kTransfer, 0});  // 9 never touched
  EXPECT_FALSE(tx.well_formed());
}

// Tests compare transactions and blocks by value, so their defaulted
// equality must cover every field.
TEST(Transaction, HashCoversCallList) {
  Transaction a = simple_transfer(1, 2);
  Transaction b = simple_transfer(1, 2);
  EXPECT_EQ(a, b);
  b.calls[0].value_wei = 101;
  EXPECT_NE(a, b);
}

TEST(Transaction, HashCoversMetadata) {
  Transaction a = simple_transfer(1, 2);
  Transaction b = a;
  b.nonce = 7;
  EXPECT_NE(a, b);
}

// ----------------------------------------------------------------- block

TEST(Block, HashDependsOnTransactions) {
  Block b1;
  b1.number = 1;
  b1.timestamp = 1000;
  b1.transactions.push_back(simple_transfer(1, 2));
  Block b2 = b1;
  EXPECT_EQ(b1, b2);
  b2.transactions.push_back(simple_transfer(2, 3));
  EXPECT_NE(b1, b2);
}

// ----------------------------------------------------------------- chain

Chain make_chain(int blocks, int txs_per_block = 1) {
  Chain chain;
  for (int i = 0; i < blocks; ++i) {
    Block b;
    b.number = static_cast<std::uint64_t>(i);
    b.timestamp = 1000 * (i + 1);
    for (int t = 0; t < txs_per_block; ++t)
      b.transactions.push_back(simple_transfer(
          static_cast<AccountId>(i), static_cast<AccountId>(i + 1)));
    chain.append(std::move(b));
  }
  return chain;
}

TEST(Chain, AppendAndValidate) {
  const Chain chain = make_chain(5, 3);
  EXPECT_EQ(chain.size(), 5u);
  EXPECT_EQ(chain.transaction_count(), 15u);
  EXPECT_TRUE(chain.validate());
}

TEST(Chain, RejectsWrongGenesisNumber) {
  Chain chain;
  Block b;
  b.number = 1;
  EXPECT_THROW(chain.append(std::move(b)), util::CheckFailure);
}

TEST(Chain, RejectsNonConsecutiveNumber) {
  Chain chain = make_chain(2);
  Block b;
  b.number = 5;
  b.timestamp = 99999;
  EXPECT_THROW(chain.append(std::move(b)), util::CheckFailure);
}

TEST(Chain, RejectsTimestampRegression) {
  Chain chain = make_chain(2);
  Block b;
  b.number = 2;
  b.timestamp = 1;  // before block 1
  EXPECT_THROW(chain.append(std::move(b)), util::CheckFailure);
}

TEST(Chain, ValidateDetectsMalformedTransaction) {
  Chain chain;
  Block b;
  b.number = 0;
  b.timestamp = 10;
  Transaction bad;
  bad.sender = 1;
  bad.calls.push_back(Call{2, 3, CallKind::kTransfer, 0});  // wrong origin
  b.transactions.push_back(bad);
  chain.append(std::move(b));
  EXPECT_FALSE(chain.validate());
}

TEST(Chain, EmptyChainQueries) {
  Chain chain;
  EXPECT_TRUE(chain.empty());
  EXPECT_TRUE(chain.validate());
  EXPECT_THROW(chain.last(), util::CheckFailure);
}

}  // namespace
}  // namespace ethshard::eth
