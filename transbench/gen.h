// Seeded input generation. Everything a workload feeds the program is
// derived from the benchmark's --seed here, as src/assay/io.h graph text, so
// the program only ever sees the generated inputs.
#pragma once
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace transbench {

/// splitmix64: small, fast, and identical on every platform.
class prng {
public:
  explicit prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }

private:
  std::uint64_t state_;
};

inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return prng(seed * 0x100000001B3ULL ^ (stream + 0x51ED270B27ULL)).next();
}

/// A mixing protocol: operation durations and (parent, child) edges, with
/// operations numbered in a topological order.
struct protocol {
  std::vector<int> durations;
  std::vector<std::pair<int, int>> deps;
};

/// A layered protocol with `ops` operations. Each operation joins two
/// fluids: up to two parents drawn from the last `window` operations whose
/// output still has volume left (an output feeds at most two children), the
/// rest loaded from inlets. A small window gives deep, chain-like protocols;
/// durations are 20, 30 or 40 seconds.
inline protocol make_protocol(int ops, std::uint64_t seed, int window) {
  prng rng(seed);
  protocol p;
  std::vector<int> children(static_cast<std::size_t>(ops), 0);
  for (int i = 0; i < ops; ++i) {
    p.durations.push_back(10 * rng.range(2, 4));
    std::vector<int> open;
    for (int j = i - 1; j >= 0 && j >= i - window; --j)
      if (children[static_cast<std::size_t>(j)] < 2) open.push_back(j);
    const double roll = rng.uniform();
    const int parents = i == 0 ? 0 : (roll < 0.15 ? 0 : (roll < 0.6 ? 1 : 2));
    rng.shuffle(open);
    for (int k = 0; k < parents && k < static_cast<int>(open.size()); ++k) {
      const int parent = open[static_cast<std::size_t>(k)];
      ++children[static_cast<std::size_t>(parent)];
      p.deps.emplace_back(parent, i);
    }
  }
  return p;
}

/// The same protocol with its operations renumbered in a seeded random
/// topological order and its edges listed in a seeded order, so the solver
/// meets the same problem with its variables permuted.
inline protocol relabel(const protocol& in, std::uint64_t seed) {
  const std::size_t n = in.durations.size();
  std::vector<int> indegree(n, 0);
  for (const auto& [from, to] : in.deps) ++indegree[static_cast<std::size_t>(to)];
  prng rng(seed);
  std::vector<int> ready;
  std::vector<int> position(n, -1);
  for (std::size_t i = 0; i < n; ++i)
    if (indegree[i] == 0) ready.push_back(static_cast<int>(i));
  protocol out;
  while (!ready.empty()) {
    const std::size_t pick = rng.next() % ready.size();
    const int v = ready[pick];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));
    position[static_cast<std::size_t>(v)] = static_cast<int>(out.durations.size());
    out.durations.push_back(in.durations[static_cast<std::size_t>(v)]);
    for (const auto& [from, to] : in.deps)
      if (from == v && --indegree[static_cast<std::size_t>(to)] == 0)
        ready.push_back(to);
  }
  for (const auto& [from, to] : in.deps)
    out.deps.emplace_back(position[static_cast<std::size_t>(from)],
                          position[static_cast<std::size_t>(to)]);
  rng.shuffle(out.deps);
  return out;
}

/// The protocol in the io.h text format.
inline std::string to_text(const std::string& name, const protocol& p) {
  std::string text = "assay " + name + "\n";
  for (std::size_t i = 0; i < p.durations.size(); ++i)
    text += "op o" + std::to_string(i) + " " + std::to_string(p.durations[i]) + "\n";
  for (const auto& [from, to] : p.deps)
    text += "dep o" + std::to_string(from) + " o" + std::to_string(to) + "\n";
  return text;
}

/// Zipf(s) probabilities of ranks 0..n-1 (rank 0 most popular).
inline std::vector<double> zipf_shares(int n, double s) {
  std::vector<double> shares;
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    shares.push_back(1.0 / std::pow(k + 1.0, s));
    total += shares.back();
  }
  for (double& x : shares) x /= total;
  return shares;
}

} // namespace transbench
