// Non-cryptographic hashing utilities.
//
// These back the Hashing partitioner (the paper's baseline shard(v) =
// hash(id(v)) mod k) and hash-combining for composite keys. Nothing in
// the library needs a cryptographic hash: blocks and transactions are
// compared by value, not by digest.
#pragma once

#include <cstdint>

namespace ethshard::util {

/// MurmurHash3 fmix64 finalizer — a fast, well-mixed permutation of a
/// 64-bit value. This is what the Hashing partitioner applies to vertex
/// ids before the modulo, so consecutive ids do not land in consecutive
/// shards.
std::uint64_t mix64(std::uint64_t x);

/// Boost-style hash combining.
inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return seed ^ (mix64(value) + 0x9E3779B97F4A7C15ULL + (seed << 6) +
                 (seed >> 2));
}

}  // namespace ethshard::util
