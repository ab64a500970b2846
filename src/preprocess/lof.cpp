#include "preprocess/lof.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.h"

namespace adsala::preprocess {

namespace {

struct Neighbourhood {
  std::vector<std::size_t> ids;  // k nearest (may include ties beyond k)
  std::vector<double> dist;      // matching distances, ascending
  double k_distance = 0.0;
};

}  // namespace

std::vector<double> lof_scores(std::span<const double> rows, std::size_t n,
                               std::size_t d, std::size_t k) {
  if (rows.size() != n * d) {
    throw std::invalid_argument("lof_scores: row buffer size mismatch");
  }
  if (n < 2) return std::vector<double>(n, 1.0);
  k = std::clamp<std::size_t>(k, 1, n - 1);

  // Pairwise k-NN (brute force), parallel over query points.
  std::vector<Neighbourhood> nbr(n);
  adsala::ThreadPool& pool = adsala::ThreadPool::global();
  pool.parallel_for(pool.max_threads(), 0, n, [&](std::size_t i) {
    std::vector<std::pair<double, std::size_t>> dist;
    dist.reserve(n - 1);
    const double* xi = &rows[i * d];
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double* xj = &rows[j * d];
      double s = 0.0;
      for (std::size_t f = 0; f < d; ++f) {
        const double diff = xi[f] - xj[f];
        s += diff * diff;
      }
      dist.emplace_back(std::sqrt(s), j);
    }
    // Only the neighbourhood needs ordering: select the k-th nearest, move
    // the later entries that tie with it forward, and sort that prefix. It
    // comes out in the ascending (distance, id) order a full sort gives,
    // which fixes the summation order of the reachability sums below.
    const auto kth = dist.begin() + static_cast<std::ptrdiff_t>(k - 1);
    std::nth_element(dist.begin(), kth, dist.end());
    const double k_dist = kth->first;
    // The k-neighbourhood includes every point at distance <= k-distance
    // (ties), per the original definition.
    const auto last = std::partition(
        kth + 1, dist.end(), [&](const auto& p) { return p.first <= k_dist; });
    std::sort(dist.begin(), last);
    Neighbourhood& nb = nbr[i];
    nb.k_distance = k_dist;
    for (auto it = dist.begin(); it != last; ++it) {
      nb.ids.push_back(it->second);
      nb.dist.push_back(it->first);
    }
  });

  // Local reachability density.
  std::vector<double> lrd(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum_reach = 0.0;
    for (std::size_t t = 0; t < nbr[i].ids.size(); ++t) {
      const std::size_t j = nbr[i].ids[t];
      sum_reach += std::max(nbr[j].k_distance, nbr[i].dist[t]);
    }
    lrd[i] = sum_reach > 0.0
                 ? static_cast<double>(nbr[i].ids.size()) / sum_reach
                 : std::numeric_limits<double>::infinity();
  }

  std::vector<double> scores(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(lrd[i])) {
      scores[i] = 1.0;  // duplicate-dense point: clearly an inlier
      continue;
    }
    double sum_ratio = 0.0;
    for (std::size_t j : nbr[i].ids) {
      sum_ratio += std::isfinite(lrd[j]) ? lrd[j] / lrd[i] : 1e6;
    }
    scores[i] = sum_ratio / static_cast<double>(nbr[i].ids.size());
  }
  return scores;
}

std::vector<std::size_t> lof_inliers(std::span<const double> rows,
                                     std::size_t n, std::size_t d,
                                     std::size_t k, double threshold) {
  const auto scores = lof_scores(rows, n, d, k);
  std::vector<std::size_t> keep;
  keep.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (scores[i] <= threshold) keep.push_back(i);
  }
  return keep;
}

}  // namespace adsala::preprocess
