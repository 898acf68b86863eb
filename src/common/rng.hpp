// Deterministic pseudo-random number generation for the simulator.
//
// Simulations must be reproducible run-to-run: every stochastic decision
// (jitter, workload generation) draws from an Rng seeded from the
// experiment configuration, never from global state. Decisions that must
// not depend on draw order (UGAL's Valiant group, net/dragonfly.cpp) hash
// their key with splitmix64 instead of drawing from a stream.
#pragma once

#include <cstdint>
#include <limits>

namespace rvma {

/// splitmix64 — used to expand a single seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, 256-bit state PRNG.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can be used
/// with <random> distributions if ever needed, though the built-in helpers
/// below cover all simulator call sites without distribution overhead.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  constexpr bool next_bool(double p) { return next_double() < p; }

  /// Derive an independent child generator (for per-entity streams).
  constexpr Rng fork() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace rvma
