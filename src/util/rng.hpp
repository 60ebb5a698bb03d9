// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (workload generation, randomized
// partitioners, probabilistic vertex migration) take an explicit Rng so that
// every experiment is reproducible from a single seed. The generator is
// xoshiro256** seeded via splitmix64, which is fast, high-quality and has a
// stable, documented output sequence (unlike std::mt19937 + distributions,
// whose std:: distribution outputs are implementation-defined).
#pragma once

#include <array>
#include <cstdint>

namespace ethshard::util {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator with explicit, portable output sequences.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0xE7583A2D1C90F147ULL);

  /// Raw 64-bit output.
  std::uint64_t next();

  // Standard UniformRandomBitGenerator interface so the generator can be
  // used with std::shuffle and friends.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Fisher–Yates shuffle of an index-addressable container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace ethshard::util
