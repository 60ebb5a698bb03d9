// Tests for the consensus-adjacent substrate: the mempool (fee-priority
// block packing under a gas limit, §II-A) and the block tree with
// longest-chain fork choice and reorg computation.
#include <gtest/gtest.h>

#include "eth/bloom.hpp"
#include "eth/chain.hpp"
#include "eth/difficulty.hpp"
#include "eth/fork_choice.hpp"
#include "eth/mempool.hpp"
#include "eth/pow.hpp"
#include "util/check.hpp"

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

// --------------------------------------------------------------- mempool

TEST(Mempool, SubmitAndSize) {
  Mempool pool;
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.submit(make_tx(1, 0, 5), 100));
  EXPECT_TRUE(pool.submit(make_tx(2, 0, 7), 100));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.contains(1, 0));
  EXPECT_FALSE(pool.contains(1, 1));
}

TEST(Mempool, RejectsMalformed) {
  Mempool pool;
  Transaction bad;
  bad.sender = 1;  // empty trace
  EXPECT_FALSE(pool.submit(std::move(bad), 100));
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, ReplacementRequiresBetterPrice) {
  Mempool pool;
  EXPECT_TRUE(pool.submit(make_tx(1, 0, 5), 100));
  EXPECT_FALSE(pool.submit(make_tx(1, 0, 5), 200));  // equal price
  EXPECT_FALSE(pool.submit(make_tx(1, 0, 4), 200));  // worse
  EXPECT_TRUE(pool.submit(make_tx(1, 0, 9), 200));   // better replaces
  EXPECT_EQ(pool.size(), 1u);
  const auto block = pool.pack_block(1'000'000);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].gas_price, 9u);
}

TEST(Mempool, PacksByGasPrice) {
  Mempool pool;
  pool.submit(make_tx(1, 0, 3), 100);
  pool.submit(make_tx(2, 0, 9), 100);
  pool.submit(make_tx(3, 0, 6), 100);
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
  pool.submit(make_tx(1, 0, 2), 100);
  pool.submit(make_tx(1, 1, 50), 100);
  pool.submit(make_tx(2, 0, 10), 100);
  const auto block = pool.pack_block(10'000'000);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].sender, 2u);  // best eligible price
  EXPECT_EQ(block[1].sender, 1u);
  EXPECT_EQ(block[1].nonce, 0u);
  EXPECT_EQ(block[2].nonce, 1u);
}

TEST(Mempool, RespectsGasLimit) {
  Mempool pool;
  for (AccountId s = 1; s <= 10; ++s) pool.submit(make_tx(s, 0, s), 100);
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
  pool.submit(make_tx(1, 0, 5), 100);
  EXPECT_TRUE(pool.pack_block(0).empty());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, EvictionByAge) {
  Mempool pool;
  pool.submit(make_tx(1, 0, 5), 100);
  pool.submit(make_tx(2, 0, 5), 200);
  pool.submit(make_tx(3, 0, 5), 300);
  EXPECT_EQ(pool.evict_older_than(250), 2u);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.contains(3, 0));
}

// ------------------------------------------------------------ fork choice

Block child_of(const Block& parent, util::Timestamp ts,
               std::uint64_t marker) {
  Block b;
  b.number = parent.number + 1;
  b.timestamp = ts;
  b.parent_hash = parent.hash();
  // Distinguish sibling blocks via a marker transaction.
  Transaction tx;
  tx.sender = marker;
  tx.calls.push_back(Call{marker, marker + 1, CallKind::kTransfer, 0});
  b.transactions.push_back(std::move(tx));
  return b;
}

Block make_genesis() {
  Block g;
  g.number = 0;
  g.timestamp = 1000;
  return g;
}

TEST(BlockTree, LinearGrowth) {
  const Block genesis = make_genesis();
  BlockTree tree(genesis);
  Block b1 = child_of(genesis, 1100, 1);
  Block b2 = child_of(b1, 1200, 2);
  EXPECT_TRUE(tree.insert(b1));
  EXPECT_TRUE(tree.insert(b2));
  EXPECT_EQ(tree.head(), b2.hash());
  EXPECT_EQ(tree.head_height(), 2u);
  EXPECT_EQ(tree.canonical_chain().size(), 3u);
}

TEST(BlockTree, RejectsUnknownParentAndDuplicates) {
  const Block genesis = make_genesis();
  BlockTree tree(genesis);
  Block orphan = child_of(genesis, 1100, 1);
  orphan.parent_hash = keccak256("nowhere");
  EXPECT_FALSE(tree.insert(orphan));

  Block b1 = child_of(genesis, 1100, 1);
  EXPECT_TRUE(tree.insert(b1));
  EXPECT_FALSE(tree.insert(b1));  // duplicate hash
  EXPECT_EQ(tree.size(), 2u);
}

TEST(BlockTree, RejectsBadNumberOrTimestamp) {
  const Block genesis = make_genesis();
  BlockTree tree(genesis);
  Block wrong_number = child_of(genesis, 1100, 1);
  wrong_number.number = 5;
  EXPECT_FALSE(tree.insert(wrong_number));

  Block early = child_of(genesis, 999, 2);  // before parent
  EXPECT_FALSE(tree.insert(early));
}

TEST(BlockTree, ShorterForkDoesNotSwitchHead) {
  const Block genesis = make_genesis();
  BlockTree tree(genesis);
  Block a1 = child_of(genesis, 1100, 1);
  Block a2 = child_of(a1, 1200, 2);
  Block b1 = child_of(genesis, 1150, 3);  // competing branch, shorter
  tree.insert(a1);
  tree.insert(a2);
  EXPECT_TRUE(tree.insert(b1));
  EXPECT_EQ(tree.head(), a2.hash());
  EXPECT_TRUE(tree.is_canonical(a1.hash()));
  EXPECT_FALSE(tree.is_canonical(b1.hash()));
}

TEST(BlockTree, LongerForkReorganizes) {
  const Block genesis = make_genesis();
  BlockTree tree(genesis);
  Block a1 = child_of(genesis, 1100, 1);
  Block b1 = child_of(genesis, 1150, 3);
  Block b2 = child_of(b1, 1250, 4);
  tree.insert(a1);
  EXPECT_EQ(tree.head(), a1.hash());
  tree.insert(b1);
  EXPECT_EQ(tree.head(), a1.hash());  // tie at height 1 keeps... or flips
  tree.insert(b2);
  EXPECT_EQ(tree.head(), b2.hash());

  const BlockTree::Reorg& reorg = tree.last_reorg();
  // Whatever the height-1 tie did, the final reorg lands on branch b.
  EXPECT_EQ(reorg.applied.back(), b2.hash());
  for (const Hash256& rolled : reorg.rolled_back)
    EXPECT_FALSE(tree.is_canonical(rolled));
}

TEST(BlockTree, ReorgBetweenComputesSymmetricDiff) {
  const Block genesis = make_genesis();
  BlockTree tree(genesis);
  Block a1 = child_of(genesis, 1100, 1);
  Block a2 = child_of(a1, 1200, 2);
  Block b1 = child_of(genesis, 1150, 3);
  Block b2 = child_of(b1, 1250, 4);
  tree.insert(a1);
  tree.insert(a2);
  tree.insert(b1);
  tree.insert(b2);

  const BlockTree::Reorg reorg =
      tree.reorg_between(a2.hash(), b2.hash());
  ASSERT_EQ(reorg.rolled_back.size(), 2u);
  ASSERT_EQ(reorg.applied.size(), 2u);
  EXPECT_EQ(reorg.rolled_back[0], a2.hash());  // tip first
  EXPECT_EQ(reorg.rolled_back[1], a1.hash());
  EXPECT_EQ(reorg.applied[0], b1.hash());  // ancestor first
  EXPECT_EQ(reorg.applied[1], b2.hash());
}

TEST(BlockTree, ReorgToSelfIsEmpty) {
  const Block genesis = make_genesis();
  BlockTree tree(genesis);
  Block a1 = child_of(genesis, 1100, 1);
  tree.insert(a1);
  const auto reorg = tree.reorg_between(a1.hash(), a1.hash());
  EXPECT_TRUE(reorg.rolled_back.empty());
  EXPECT_TRUE(reorg.applied.empty());
}

TEST(BlockTree, EqualHeightTieBreaksDeterministically) {
  const Block genesis = make_genesis();
  Block a1 = child_of(genesis, 1100, 1);
  Block b1 = child_of(genesis, 1150, 3);

  // Insert in both orders: the same head must win.
  BlockTree t1(genesis);
  t1.insert(a1);
  t1.insert(b1);
  BlockTree t2(genesis);
  t2.insert(b1);
  t2.insert(a1);
  EXPECT_EQ(t1.head(), t2.head());
  EXPECT_EQ(t1.head(), std::min(a1.hash(), b1.hash()));
}

TEST(BlockTree, UnknownHashThrows) {
  BlockTree tree(make_genesis());
  EXPECT_THROW(tree.height_of(keccak256("nope")), util::CheckFailure);
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

// ----------------------------------------------------------------- bloom

TEST(Bloom, MembersAlwaysMatch) {
  Bloom2048 bloom;
  for (int i = 0; i < 50; ++i)
    bloom.add(Address::from_id(static_cast<AccountId>(i)));
  for (int i = 0; i < 50; ++i)
    EXPECT_TRUE(
        bloom.might_contain(Address::from_id(static_cast<AccountId>(i))));
}

TEST(Bloom, EmptyMatchesNothing) {
  const Bloom2048 bloom;
  EXPECT_TRUE(bloom.empty());
  EXPECT_FALSE(bloom.might_contain(Address::from_id(7)));
  EXPECT_FALSE(bloom.might_contain("anything"));
}

TEST(Bloom, FalsePositiveRateIsLowWhenSparse) {
  Bloom2048 bloom;
  for (AccountId id = 0; id < 40; ++id)  // 40 items, ≤120 of 2048 bits
    bloom.add(Address::from_id(id));
  int false_positives = 0;
  constexpr int kProbes = 2000;
  for (int i = 0; i < kProbes; ++i)
    if (bloom.might_contain(
            Address::from_id(static_cast<AccountId>(100000 + i))))
      ++false_positives;
  // Theoretical fp ≈ (120/2048)^3 ≈ 2e-4; allow generous slack.
  EXPECT_LT(false_positives, kProbes / 100);
}

TEST(Bloom, ThreeBitsPerItem) {
  Bloom2048 bloom;
  bloom.add("item");
  EXPECT_LE(bloom.popcount(), 3u);
  EXPECT_GE(bloom.popcount(), 1u);
}

TEST(Bloom, MergeIsUnion) {
  Bloom2048 a;
  Bloom2048 b;
  a.add(Address::from_id(1));
  b.add(Address::from_id(2));
  a.merge(b);
  EXPECT_TRUE(a.might_contain(Address::from_id(1)));
  EXPECT_TRUE(a.might_contain(Address::from_id(2)));
}

TEST(Bloom, BlockBloomCoversAllParticipants) {
  Block b;
  b.number = 0;
  b.timestamp = 10;
  Transaction tx;
  tx.sender = 5;
  tx.calls.push_back(Call{5, 9, CallKind::kContractCall, 0});
  tx.calls.push_back(Call{9, 12, CallKind::kTransfer, 3});
  b.transactions.push_back(tx);
  const Bloom2048 bloom = block_address_bloom(b);
  for (AccountId id : {5ULL, 9ULL, 12ULL})
    EXPECT_TRUE(bloom.might_contain(Address::from_id(id)));
  EXPECT_FALSE(bloom.might_contain(Address::from_id(424242)));
}

// ------------------------------------------------------------------- pow

TEST(Pow, TargetHalvesPerBit) {
  EXPECT_EQ(pow_target(0), ~std::uint64_t{0});
  EXPECT_EQ(pow_target(1), ~std::uint64_t{0} >> 1);
  EXPECT_EQ(pow_target(8), ~std::uint64_t{0} >> 8);
  EXPECT_THROW(pow_target(64), util::CheckFailure);
}

TEST(Pow, MineFindsValidSeal) {
  Block b = make_genesis();
  const auto seal = mine(b, /*difficulty_bits=*/10);
  ASSERT_TRUE(seal.has_value());
  EXPECT_TRUE(check_seal(b, *seal, 10));
  // The digest really is below target.
  EXPECT_LE(hash_prefix_u64(seal->mix), pow_target(10));
}

TEST(Pow, SealIsDeterministic) {
  Block b = make_genesis();
  const auto a = mine(b, 8);
  const auto c = mine(b, 8);
  ASSERT_TRUE(a && c);
  EXPECT_EQ(a->nonce, c->nonce);
  EXPECT_EQ(a->mix, c->mix);
}

TEST(Pow, SealInvalidForDifferentBlock) {
  Block b1 = make_genesis();
  Block b2 = child_of(b1, 2000, 1);
  const auto seal = mine(b1, 8);
  ASSERT_TRUE(seal);
  EXPECT_FALSE(check_seal(b2, *seal, 8));
}

TEST(Pow, TamperedMixRejected) {
  Block b = make_genesis();
  auto seal = mine(b, 8);
  ASSERT_TRUE(seal);
  seal->mix[0] ^= 0x01;
  EXPECT_FALSE(check_seal(b, *seal, 8));
}

TEST(Pow, HigherDifficultyNeedsMoreWorkOnAverage) {
  // Statistical: over several blocks, nonces found at 12 bits exceed
  // those at 4 bits in total.
  std::uint64_t easy_total = 0;
  std::uint64_t hard_total = 0;
  Block parent = make_genesis();
  for (int i = 0; i < 8; ++i) {
    Block b = child_of(parent, 1000 + 100 * (i + 1),
                       static_cast<std::uint64_t>(100 + i));
    const auto easy = mine(b, 4);
    const auto hard = mine(b, 12);
    ASSERT_TRUE(easy && hard);
    easy_total += easy->nonce;
    hard_total += hard->nonce;
    parent = b;
  }
  EXPECT_GT(hard_total, easy_total);
}

TEST(Pow, BudgetExhaustionReturnsNothing) {
  Block b = make_genesis();
  // 2^40-expected-work puzzle with a 4-attempt budget: all but certain
  // to miss.
  EXPECT_FALSE(mine(b, 40, /*max_attempts=*/4).has_value());
}

TEST(Pow, SealedChainEndToEnd) {
  // Mine a 3-block chain at trivial difficulty; every seal verifies and
  // the chain still validates structurally.
  constexpr unsigned kBits = 6;
  Chain chain;
  std::vector<Seal> seals;
  Block genesis = make_genesis();
  const Seal gseal = *mine(genesis, kBits);
  chain.append(std::move(genesis));
  seals.push_back(gseal);
  for (int i = 1; i <= 2; ++i) {
    Block b = child_of(chain.last(), 1000 + 100 * i,
                       static_cast<std::uint64_t>(i));
    const auto seal = mine(b, kBits);
    ASSERT_TRUE(seal);
    seals.push_back(*seal);
    chain.append(std::move(b));
  }
  EXPECT_TRUE(chain.validate());
  for (std::uint64_t i = 0; i < chain.size(); ++i)
    EXPECT_TRUE(check_seal(chain.block(i), seals[i], kBits));
}

}  // namespace
}  // namespace ethshard::eth
