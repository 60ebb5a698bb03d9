// Shared plumbing for the figure-reproduction harnesses.
//
// Every harness regenerates the same deterministic synthetic history
// (seed 1234) at a scale controlled by the ETHSHARD_SCALE environment
// variable (default 0.002 ≈ 1.2e5 interactions, seconds per run; the
// paper's full volume is scale 1.0).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/strategies.hpp"
#include "core/strategy_registry.hpp"
#include "metrics/summary.hpp"
#include "workload/generator.hpp"

namespace ethshard::bench {

inline double scale_from_env(double fallback = 0.002) {
  if (const char* s = std::getenv("ETHSHARD_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return fallback;
}

inline std::uint64_t seed_from_env(std::uint64_t fallback = 1234) {
  if (const char* s = std::getenv("ETHSHARD_SEED")) {
    const std::uint64_t v = std::strtoull(s, nullptr, 10);
    if (v != 0) return v;
  }
  return fallback;
}

inline workload::History make_history(double scale, std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  return workload::EthereumHistoryGenerator(cfg).generate();
}

inline core::SimulationResult simulate(const workload::History& history,
                                       core::Method method,
                                       std::uint32_t k,
                                       std::uint64_t seed = 7) {
  const auto strategy = core::make_strategy(method, seed);
  core::SimulatorConfig cfg;
  cfg.k = k;
  core::ShardingSimulator sim(history, *strategy, cfg);
  return sim.run();
}

/// Spec-string variant (see core/strategy_registry.hpp for the grammar).
inline core::SimulationResult simulate(const workload::History& history,
                                       const std::string& spec,
                                       std::uint32_t k,
                                       std::uint64_t seed = 7) {
  const auto strategy = core::StrategyRegistry::global().make(spec, seed);
  core::SimulatorConfig cfg;
  cfg.k = k;
  core::ShardingSimulator sim(history, *strategy, cfg);
  return sim.run();
}

/// Windows restricted to [from, to).
inline std::vector<core::WindowSample> windows_between(
    const core::SimulationResult& r, util::Timestamp from,
    util::Timestamp to) {
  std::vector<core::WindowSample> out;
  for (const core::WindowSample& w : r.windows)
    if (w.window_start >= from && w.window_start < to) out.push_back(w);
  return out;
}

/// Moves from repartition events inside [from, to).
inline std::uint64_t moves_between(const core::SimulationResult& r,
                                   util::Timestamp from, util::Timestamp to) {
  std::uint64_t sum = 0;
  for (const core::RepartitionEvent& e : r.repartitions)
    if (e.time >= from && e.time < to) sum += e.moves;
  return sum;
}

inline void print_header(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace ethshard::bench
