#include "preprocess/pipeline.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "preprocess/correlation_filter.h"
#include "preprocess/features.h"
#include "preprocess/lof.h"
#include "preprocess/scaler.h"
#include "preprocess/yeo_johnson.h"

namespace adsala::preprocess {

ml::Dataset Pipeline::fit_transform(const ml::Dataset& raw) {
  if (raw.empty()) throw std::invalid_argument("Pipeline: empty dataset");
  const std::size_t n = raw.size();
  const std::size_t d = raw.n_features();
  names_ = raw.feature_names();
  columns_ = resolve_columns(names_);

  // Stage 2+3 state, fitted column-wise. Categorical columns keep the
  // identity parameters (lambda 1, mean 0, std 1), so transform_row treats
  // them uniformly.
  lambdas_.assign(d, 1.0);
  means_.assign(d, 0.0);
  stds_.assign(d, 1.0);

  std::vector<bool> is_categorical(d, false);
  for (std::size_t j : cfg_.categorical) {
    if (j >= d) {
      throw std::invalid_argument("Pipeline: categorical index out of range");
    }
    is_categorical[j] = true;
  }

  std::vector<double> transformed(n * d);
  std::vector<bool> is_constant(d, false);
  for (std::size_t j = 0; j < d; ++j) {
    std::vector<double> col = raw.column(j);
    if (!col.empty()) {
      const auto [lo, hi] = std::minmax_element(col.begin(), col.end());
      is_constant[j] = *lo == *hi;
    }
    if (!is_categorical[j]) {
      if (cfg_.yeo_johnson) {
        YeoJohnsonTransformer yj;
        yj.fit(col);
        lambdas_[j] = yj.lambda();
        for (auto& v : col) v = yj.transform(v);
      }
      if (cfg_.standardize) {
        StandardScaler sc;
        sc.fit(col);
        means_[j] = sc.mean();
        stds_[j] = sc.stddev();
        for (auto& v : col) v = sc.transform(v);
      }
    }
    for (std::size_t i = 0; i < n; ++i) transformed[i * d + j] = col[i];
  }

  // Stage 4: LOF row removal on the standardised matrix.
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  if (cfg_.lof && n > cfg_.lof_k + 1) {
    rows = lof_inliers(transformed, n, d, cfg_.lof_k, cfg_.lof_threshold);
  }
  rows_removed_ = n - rows.size();

  // Materialise the intermediate dataset to run the correlation filter on
  // exactly the surviving rows.
  ml::Dataset inter(names_);
  for (std::size_t i : rows) {
    inter.add_row({&transformed[i * d], d},
                  transform_label(raw.label(i)));
  }

  // Stage 5: feature whitelist (ablation hook), constant-categorical drop,
  // then correlation filter.
  std::vector<std::size_t> candidates;
  if (cfg_.feature_whitelist.empty()) {
    candidates.resize(d);
    std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  } else {
    candidates = cfg_.feature_whitelist;
  }
  std::erase_if(candidates, [&](std::size_t j) {
    return is_categorical[j] && is_constant[j];
  });
  keep_ = candidates;
  if (cfg_.corr_filter) {
    const ml::Dataset restricted = inter.select_features(candidates);
    const auto kept_local = correlation_filter(restricted, cfg_.corr_threshold);
    keep_.clear();
    for (std::size_t local : kept_local) keep_.push_back(candidates[local]);
  }
  return inter.select_features(keep_);
}

std::vector<double> Pipeline::transform_row(
    std::span<const double> raw) const {
  std::vector<double> out(keep_.size());
  for (std::size_t pos = 0; pos < keep_.size(); ++pos) {
    out[pos] = transform_kept(pos, raw[keep_[pos]]);
  }
  return out;
}

double Pipeline::transform_kept(std::size_t pos, double v) const {
  const std::size_t j = keep_[pos];
  if (cfg_.yeo_johnson) v = yeo_johnson(v, lambdas_[j]);
  if (cfg_.standardize) v = (v - means_[j]) / stds_[j];
  return v;
}

double Pipeline::transform_label(double y) const {
  return cfg_.log_label ? std::log(std::max(y, 1e-300)) : y;
}

double Pipeline::inverse_label(double y) const {
  return cfg_.log_label ? std::exp(y) : y;
}

Json Pipeline::save() const {
  Json out;
  out["yeo_johnson"] = Json(cfg_.yeo_johnson);
  out["standardize"] = Json(cfg_.standardize);
  out["lof"] = Json(cfg_.lof);
  out["lof_k"] = Json(cfg_.lof_k);
  out["lof_threshold"] = Json(cfg_.lof_threshold);
  out["corr_filter"] = Json(cfg_.corr_filter);
  out["corr_threshold"] = Json(cfg_.corr_threshold);
  out["log_label"] = Json(cfg_.log_label);
  JsonArray categorical;
  for (std::size_t j : cfg_.categorical) categorical.emplace_back(j);
  out["categorical"] = Json(std::move(categorical));
  JsonArray names;
  for (const auto& s : names_) names.emplace_back(s);
  out["feature_names"] = Json(std::move(names));
  out["lambdas"] = Json::from_doubles(lambdas_);
  out["means"] = Json::from_doubles(means_);
  out["stds"] = Json::from_doubles(stds_);
  JsonArray keep;
  for (std::size_t j : keep_) keep.emplace_back(j);
  out["keep"] = Json(std::move(keep));
  return out;
}

void Pipeline::load(const Json& blob) {
  cfg_.yeo_johnson = blob.at("yeo_johnson").as_bool();
  cfg_.standardize = blob.at("standardize").as_bool();
  cfg_.lof = blob.at("lof").as_bool();
  cfg_.lof_k = static_cast<std::size_t>(blob.at("lof_k").as_number());
  cfg_.lof_threshold = blob.at("lof_threshold").as_number();
  cfg_.corr_filter = blob.at("corr_filter").as_bool();
  cfg_.corr_threshold = blob.at("corr_threshold").as_number();
  cfg_.log_label = blob.at("log_label").as_bool();
  cfg_.categorical.clear();
  if (blob.contains("categorical")) {  // absent in PR-1-era config files
    for (const auto& v : blob.at("categorical").as_array()) {
      cfg_.categorical.push_back(static_cast<std::size_t>(v.as_number()));
    }
  }
  names_.clear();
  for (const auto& s : blob.at("feature_names").as_array()) {
    names_.push_back(s.as_string());
  }
  columns_ = resolve_columns(names_);
  lambdas_ = blob.at("lambdas").to_doubles();
  means_ = blob.at("means").to_doubles();
  stds_ = blob.at("stds").to_doubles();
  // transform_kept indexes these by input column.
  for (const auto& [key, values] : {std::pair{"lambdas", &lambdas_},
                                    std::pair{"means", &means_},
                                    std::pair{"stds", &stds_}}) {
    if (values->size() != names_.size()) {
      throw std::invalid_argument(
          std::string("Pipeline: '") + key + "' has " +
          std::to_string(values->size()) + " entries for " +
          std::to_string(names_.size()) + " feature columns");
    }
  }
  keep_.clear();
  for (const auto& v : blob.at("keep").as_array()) {
    keep_.push_back(static_cast<std::size_t>(v.as_number()));
  }
}

}  // namespace adsala::preprocess
