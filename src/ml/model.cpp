#include "ml/model.h"

#include <stdexcept>

#include "ml/grid_scorer.h"

namespace adsala::ml {

void Regressor::predict_grid(std::span<const double> rows,
                             std::size_t n_rows, std::span<double> out) const {
  if (n_rows == 0) return;
  const std::size_t width = rows.size() / n_rows;
  for (std::size_t g = 0; g < n_rows; ++g) {
    out[g] = predict_one(rows.subspan(g * width, width));
  }
}

std::shared_ptr<const GridScorer> Regressor::grid_scorer(
    const GridLayout&, std::string* why_not) const {
  if (why_not != nullptr) *why_not = name() + " is not a boosted tree ensemble";
  return nullptr;
}

std::vector<double> Regressor::predict(const Dataset& data) const {
  std::vector<double> out(data.size());
  predict_grid(data.flat(), data.size(), out);
  return out;
}

void Regressor::check_fit_input(const Dataset& data) {
  if (data.empty() || data.n_features() == 0) {
    throw std::invalid_argument("Regressor::fit: empty dataset");
  }
}

double Regressor::param_or(const Params& p, const std::string& key,
                           double fallback) {
  const auto it = p.find(key);
  return it == p.end() ? fallback : it->second;
}

}  // namespace adsala::ml
