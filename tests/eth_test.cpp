// Unit tests for the blockchain data model: RLP encoding, the account
// registry, transactions, block equality, chain ordering and validation,
// and difficulty adjustment.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "eth/address.hpp"
#include "eth/block.hpp"
#include "eth/chain.hpp"
#include "eth/difficulty.hpp"
#include "eth/rlp.hpp"
#include "eth/transaction.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ethshard::eth {
namespace {

// ------------------------------------------------------------------- rlp

using rlp::Bytes;
using rlp::Item;

Bytes bytes_of(std::initializer_list<int> xs) {
  Bytes b;
  for (int x : xs) b.push_back(static_cast<std::uint8_t>(x));
  return b;
}

TEST(Rlp, YellowPaperStringVectors) {
  // rlp("dog") = [0x83, 'd', 'o', 'g']
  EXPECT_EQ(rlp::encode_string("dog"),
            bytes_of({0x83, 'd', 'o', 'g'}));
  // rlp("") = [0x80]
  EXPECT_EQ(rlp::encode_string(""), bytes_of({0x80}));
  // Single byte below 0x80 encodes itself.
  EXPECT_EQ(rlp::encode_string("\x0f"), bytes_of({0x0f}));
  EXPECT_EQ(rlp::encode_string("a"), bytes_of({'a'}));
}

TEST(Rlp, YellowPaperIntegerVectors) {
  EXPECT_EQ(rlp::encode_integer(0), bytes_of({0x80}));
  EXPECT_EQ(rlp::encode_integer(15), bytes_of({0x0f}));
  // rlp(1024) = [0x82, 0x04, 0x00]
  EXPECT_EQ(rlp::encode_integer(1024), bytes_of({0x82, 0x04, 0x00}));
}

TEST(Rlp, YellowPaperListVectors) {
  // rlp(["cat","dog"]) = [0xc8, 0x83,'c','a','t', 0x83,'d','o','g']
  const Item cat_dog =
      Item::list({Item::string("cat"), Item::string("dog")});
  EXPECT_EQ(rlp::encode(cat_dog),
            bytes_of({0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'}));
  // rlp([]) = [0xc0]
  EXPECT_EQ(rlp::encode(Item::list({})), bytes_of({0xc0}));
  // The "set-theoretic three": [ [], [[]], [ [], [[]] ] ]
  const Item empty = Item::list({});
  const Item nested = Item::list({empty});
  const Item three = Item::list({empty, nested, Item::list({empty, nested})});
  EXPECT_EQ(rlp::encode(three),
            bytes_of({0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0}));
}

TEST(Rlp, LongStringUsesLengthOfLength) {
  // 56-byte string: 0xb8 0x38 <payload>.
  const std::string s(56, 'x');
  const Bytes enc = rlp::encode_string(s);
  ASSERT_EQ(enc.size(), 58u);
  EXPECT_EQ(enc[0], 0xb8);
  EXPECT_EQ(enc[1], 56);
}

TEST(Rlp, RoundTripNestedStructures) {
  const Item item = Item::list(
      {Item::integer(0), Item::integer(1024), Item::string("hello rlp"),
       Item::list({Item::string(std::string(100, 'y')),
                   Item::list({}), Item::integer(255)})});
  EXPECT_EQ(rlp::decode(rlp::encode(item)), item);
}

TEST(Rlp, IntegerRoundTrip) {
  for (std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 255ULL, 256ULL, 1024ULL,
        0xDEADBEEFULL, ~0ULL}) {
    EXPECT_EQ(rlp::decode(rlp::encode_integer(v)).to_integer(), v);
  }
}

TEST(Rlp, DecodeRejectsTrailingBytes) {
  Bytes enc = rlp::encode_string("dog");
  enc.push_back(0x00);
  EXPECT_THROW(rlp::decode(enc), util::CheckFailure);
}

TEST(Rlp, DecodeRejectsTruncation) {
  Bytes enc = rlp::encode_string("dog");
  enc.pop_back();
  EXPECT_THROW(rlp::decode(enc), util::CheckFailure);
}

TEST(Rlp, DecodeRejectsNonCanonicalSingleByte) {
  // 'a' must encode as itself, not as 0x81 0x61.
  EXPECT_THROW(rlp::decode(bytes_of({0x81, 0x61})), util::CheckFailure);
}

TEST(Rlp, DecodeRejectsNonMinimalLength) {
  // Long form with leading zero length byte.
  Bytes bad = {0xb9, 0x00, 0x38};
  bad.resize(3 + 56, 'x');
  EXPECT_THROW(rlp::decode(bad), util::CheckFailure);
}

TEST(Rlp, ToIntegerRejectsLists) {
  EXPECT_THROW(Item::list({}).to_integer(), util::CheckFailure);
}

TEST(Rlp, FuzzDecodeNeverCrashesAndIsCanonical) {
  // Random byte strings either fail to decode (CheckFailure) or decode to
  // an item whose re-encoding is byte-identical — the canonical-form
  // property strict decoding guarantees.
  ethshard::util::Rng rng(20240705);
  int decoded_ok = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes bytes(rng.uniform(24));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
    try {
      const Item item = rlp::decode(bytes);
      EXPECT_EQ(rlp::encode(item), bytes);
      ++decoded_ok;
    } catch (const util::CheckFailure&) {
      // fine: malformed input must throw, not crash
    }
  }
  EXPECT_GT(decoded_ok, 0);  // single bytes <=0x7f always decode
}

TEST(Rlp, FuzzEncodeDecodeRandomStructures) {
  ethshard::util::Rng rng(42);
  // Random nested items round-trip exactly.
  std::function<Item(int)> random_item = [&](int depth) -> Item {
    if (depth >= 3 || rng.bernoulli(0.6)) {
      Bytes b(rng.uniform(40));
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniform(256));
      return Item::string(std::move(b));
    }
    std::vector<Item> children;
    const std::uint64_t n = rng.uniform(4);
    for (std::uint64_t i = 0; i < n; ++i)
      children.push_back(random_item(depth + 1));
    return Item::list(std::move(children));
  };
  for (int trial = 0; trial < 300; ++trial) {
    const Item item = random_item(0);
    EXPECT_EQ(rlp::decode(rlp::encode(item)), item);
  }
}

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

TEST(Chain, FirstBlockAtOrAfter) {
  const Chain chain = make_chain(5);  // timestamps 1000..5000
  EXPECT_EQ(chain.first_block_at_or_after(0), 0u);
  EXPECT_EQ(chain.first_block_at_or_after(1000), 0u);
  EXPECT_EQ(chain.first_block_at_or_after(1001), 1u);
  EXPECT_EQ(chain.first_block_at_or_after(5000), 4u);
  EXPECT_EQ(chain.first_block_at_or_after(5001), 5u);
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

// ------------------------------------------------------------- difficulty

TEST(Difficulty, FastBlocksRaiseDifficulty) {
  const DifficultyParams p{.ice_age = false};
  const std::uint64_t d0 = 1'000'000;
  // Block mined in 5s (< 10s target) → difficulty rises by d/2048.
  EXPECT_EQ(next_difficulty(d0, 5, 100, p), d0 + d0 / 2048);
}

TEST(Difficulty, SlowBlocksLowerDifficulty) {
  const DifficultyParams p{.ice_age = false};
  const std::uint64_t d0 = 1'000'000;
  // 35s delta → sigma = 1 - 3 = -2.
  EXPECT_EQ(next_difficulty(d0, 35, 100, p),
            d0 - 2 * (d0 / 2048));
}

TEST(Difficulty, SigmaIsClampedAtMinus99) {
  const DifficultyParams p{.ice_age = false};
  const std::uint64_t d0 = 10'000'000;
  EXPECT_EQ(next_difficulty(d0, 1'000'000, 100, p),
            d0 - 99 * (d0 / 2048));
}

TEST(Difficulty, NeverFallsBelowMinimum) {
  const DifficultyParams p{.ice_age = false};
  EXPECT_EQ(next_difficulty(p.minimum_difficulty, 10'000, 100, p),
            p.minimum_difficulty);
}

TEST(Difficulty, IceAgeTermGrowsExponentially) {
  const std::uint64_t d0 = 10'000'000'000ULL;
  const std::uint64_t base =
      next_difficulty(d0, 10, 50'000, DifficultyParams{.ice_age = false});
  // At block 3.0M the bomb term is 2^28; at 4.0M it is 2^38.
  EXPECT_EQ(next_difficulty(d0, 10, 3'000'000, DifficultyParams{}),
            base + (1ULL << 28));
  EXPECT_EQ(next_difficulty(d0, 10, 4'000'000, DifficultyParams{}),
            base + (1ULL << 38));
}

TEST(Difficulty, ConvergesTowardTargetSpacing) {
  // Closed loop: expected block time = difficulty / hashrate. Starting
  // far off, repeated adjustment pulls spacing toward ~10-20s.
  const DifficultyParams p{.ice_age = false};
  const double hashrate = 1e6;  // hashes/s
  std::uint64_t d = 100'000'000;  // way too hard: ~100s blocks
  double spacing = 0;
  for (int i = 0; i < 3000; ++i) {
    spacing = static_cast<double>(d) / hashrate;
    d = next_difficulty(
        d, static_cast<std::uint64_t>(std::max(1.0, spacing)), 100, p);
  }
  EXPECT_GT(spacing, 5.0);
  EXPECT_LT(spacing, 25.0);
}

}  // namespace
}  // namespace ethshard::eth
