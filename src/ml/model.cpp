#include "ml/model.h"

#include <stdexcept>

#include "ml/grid_scorer.h"
#include "ml/registry.h"

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

Json Regressor::save() const {
  Json out;
  out["model"] = Json(name());
  JsonObject params;
  for (const auto& [key, value] : get_params()) params[key] = Json(value);
  out["params"] = Json(std::move(params));
  save_state(out);
  return out;
}

void Regressor::load(const Json& blob) {
  if (blob.at("model").as_string() != name()) {
    throw std::invalid_argument("model blob is a '" +
                                blob.at("model").as_string() + "', not a '" +
                                name() + "'");
  }
  Params params;
  for (const auto& [key, value] : blob.at("params").as_object()) {
    params[key] = value.as_number();
  }
  set_params(params);
  load_state(blob);
}

std::unique_ptr<Regressor> Regressor::clone() const {
  return make_model(name(), get_params());
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
