#include "ulpdream/cs/sensing_matrix.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ulpdream::cs {

linalg::Matrix SparsePhi::to_dense() const {
  linalg::Matrix phi(m, n);
  const double value = 1.0 / static_cast<double>(d);
  for (std::size_t c = 0; c < n; ++c) {
    for (int k = 0; k < d; ++k) {
      phi.at(rows[c * static_cast<std::size_t>(d) +
                  static_cast<std::size_t>(k)],
             c) = value;
    }
  }
  return phi;
}

std::vector<std::vector<std::uint32_t>> SparsePhi::row_columns() const {
  std::vector<std::vector<std::uint32_t>> out(m);
  for (std::size_t c = 0; c < n; ++c) {
    for (int k = 0; k < d; ++k) {
      out[rows[c * static_cast<std::size_t>(d) + static_cast<std::size_t>(k)]]
          .push_back(static_cast<std::uint32_t>(c));
    }
  }
  return out;
}

SparsePhi make_sparse_phi(std::size_t m, std::size_t n, int d,
                          std::uint64_t seed) {
  if (d <= 0 || (d & (d - 1)) != 0 || static_cast<std::size_t>(d) > m) {
    throw std::invalid_argument(
        "make_sparse_phi: d must be a power of two <= m");
  }
  util::Xoshiro256 rng(seed);
  SparsePhi phi;
  phi.m = m;
  phi.n = n;
  phi.d = d;
  phi.rows.resize(n * static_cast<std::size_t>(d));
  std::vector<std::size_t> pool(m);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < m; ++i) pool[i] = i;
    for (int k = 0; k < d; ++k) {
      const std::size_t j =
          static_cast<std::size_t>(k) +
          static_cast<std::size_t>(rng.bounded(m - static_cast<std::size_t>(k)));
      std::swap(pool[static_cast<std::size_t>(k)], pool[j]);
      phi.rows[c * static_cast<std::size_t>(d) + static_cast<std::size_t>(k)] =
          static_cast<std::uint32_t>(pool[static_cast<std::size_t>(k)]);
    }
  }
  return phi;
}

linalg::Matrix bernoulli_matrix(std::size_t m, std::size_t n,
                                std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  linalg::Matrix phi(m, n);
  const double value = 1.0 / std::sqrt(static_cast<double>(m));
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      phi.at(r, c) = rng.bernoulli(0.5) ? value : -value;
    }
  }
  return phi;
}

}  // namespace ulpdream::cs
