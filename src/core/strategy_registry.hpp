// String-addressable strategy construction: an open registry that
// resolves specs like
//
//   "r-metis"
//   "tr-metis:cut_floor=0.25,min_gap_days=2"
//   "kl:rounds=8,probabilistic=true,seed=42"
//
// to configured ShardingStrategy instances. New strategies plug in with
// StrategyRegistry::global().add(...) — no edit to the closed Method enum
// required. Names are case-insensitive; the paper's figure labels
// ("Hashing", "R-METIS", and the Fig. 4/5 alias "P-METIS") all resolve.
//
// Grammar:   spec     := name [":" param ("," param)*]
//            param    := key "=" value
// Unknown names, unknown keys, duplicate keys and unparsable values are
// rejected with a util::CheckFailure naming the offending token.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/strategy.hpp"

namespace ethshard::core {

/// A parsed strategy spec: the (normalized, lowercase) strategy name and
/// its key=value parameters in spec order.
struct StrategySpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
};

/// Splits a spec string. Throws util::CheckFailure on a malformed token
/// (missing '=', empty key, duplicate key), naming it.
StrategySpec parse_strategy_spec(std::string_view spec);

/// Typed, consumption-tracked access to a spec's parameters. Factories
/// read each key they support through one of the getters; finish() then
/// rejects any key that was never read — so a typo like "cut_flor" fails
/// with a message naming it rather than being silently ignored.
class SpecReader {
 public:
  /// `default_seed` seeds randomized strategy components unless the spec
  /// carries an explicit "seed" key; `default_threads` is the partitioner
  /// thread count a "threads" key falls back to (1 = serial).
  SpecReader(const StrategySpec& spec, std::uint64_t default_seed,
             std::size_t default_threads = 1);

  const std::string& name() const { return spec_.name; }
  std::uint64_t seed() const { return seed_; }
  std::size_t default_threads() const { return default_threads_; }

  /// Getters return `fallback` when the key is absent and throw
  /// util::CheckFailure (naming the key) when the value does not parse.
  std::string get_string(const std::string& key, const std::string& fallback);
  double get_double(const std::string& key, double fallback);
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback);
  int get_int(const std::string& key, int fallback);
  bool get_bool(const std::string& key, bool fallback);

  /// Throws util::CheckFailure naming the first never-read key, if any.
  void finish() const;

 private:
  const std::string* raw(const std::string& key);

  const StrategySpec& spec_;
  std::uint64_t seed_;
  std::size_t default_threads_;
  std::set<std::string> consumed_;
};

/// The configured strategy that make_build returns. make_build stays for
/// callers written against it (perfbench's tracer); other code calls
/// make().
struct StrategyBuild {
  std::unique_ptr<ShardingStrategy> strategy;
};

/// Open factory registry mapping names (plus aliases) to strategy
/// builders. global() comes pre-loaded with the paper's five methods and
/// DSM; user code may add its own before parsing CLI flags.
class StrategyRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<ShardingStrategy>(SpecReader&)>;

  /// Registers `factory` under `canonical` and each alias (all matched
  /// case-insensitively). Re-registering a taken name throws.
  void add(const std::string& canonical,
           const std::vector<std::string>& aliases, Factory factory);

  /// Builds a configured strategy from a spec string. Throws
  /// util::CheckFailure on an unknown name (listing the known ones) or a
  /// malformed/unknown parameter (naming the key). `default_threads` is
  /// the partitioner thread count used when the spec has no "threads="
  /// key (1 = serial; MLKP-backed strategies produce bit-identical
  /// partitions for every thread count, so this only changes speed).
  std::unique_ptr<ShardingStrategy> make(
      std::string_view spec, std::uint64_t default_seed = 1,
      std::size_t default_threads = 1) const;

  /// Like make(), wrapped in a StrategyBuild. make() delegates here, so
  /// both entry points accept the same spec grammar.
  StrategyBuild make_build(std::string_view spec,
                           std::uint64_t default_seed = 1,
                           std::size_t default_threads = 1) const;

  bool contains(std::string_view name) const;

  /// Canonical names, sorted (aliases excluded).
  std::vector<std::string> names() const;

  /// Process-wide registry with the built-ins pre-registered.
  static StrategyRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;  // canonical + aliases
  std::vector<std::string> canonical_;
};

}  // namespace ethshard::core
