#include "preprocess/features.h"

#include <algorithm>
#include <stdexcept>

#include "blas/kernels/dispatch.h"

namespace adsala::preprocess {

namespace {

// The op one-hot block is indexed by op code; the table codes must stay
// contiguous from 0 for that to hold.
static_assert([] {
  int code = 0;
  for (const auto op : blas::all_ops()) {
    if (blas::op_code(op) != code++) return false;
  }
  return true;
}());

// Kernel tiers are ordered generic < avx2 < avx512, both in the Variant
// enum (from 1; 0 is kAuto) and in the kernel one-hot block.
static_assert(static_cast<int>(blas::kernels::Variant::kGeneric) == 1 &&
              static_cast<int>(blas::kernels::Variant::kAvx2) == 2 &&
              static_cast<int>(blas::kernels::Variant::kAvx512) == 3);

std::size_t op_column(blas::OpKind op) {
  return kNumFeatures + static_cast<std::size_t>(blas::op_code(op));
}

/// The kernel one-hot column of a concrete variant.
std::size_t kernel_column(blas::kernels::Variant variant) {
  return kNumFeatures + blas::kNumOps + static_cast<std::size_t>(variant) - 1;
}

bool has_column(std::span<const std::size_t> columns, std::size_t col) {
  return std::find(columns.begin(), columns.end(), col) != columns.end();
}

}  // namespace

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> names = {
      // Group 1: serial-runtime terms.
      "m", "k", "n", "n_threads", "m*k", "m*n", "k*n", "m*k*n",
      "m*k+k*n+m*n",
      // Group 2: parallel-runtime terms.
      "m/t", "k/t", "n/t", "m*k/t", "m*n/t", "k*n/t", "m*k*n/t",
      "(m*k+k*n+m*n)/t"};
  return names;
}

const std::vector<std::string>& op_aware_feature_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all = feature_names();
    for (const auto op : blas::all_ops()) {
      all.push_back(std::string("op_") + blas::op_name(op));
    }
    all.insert(all.end(), {"kernel_generic", "kernel_avx2", "kernel_avx512"});
    return all;
  }();
  return names;
}

std::vector<std::size_t> group1_indices() {
  return {0, 1, 2, 3, 4, 5, 6, 7, 8};
}

std::vector<std::size_t> categorical_indices() {
  std::vector<std::size_t> idx;
  for (std::size_t j = kNumFeatures; j < kNumOpAwareFeatures; ++j) {
    idx.push_back(j);
  }
  return idx;
}

bool is_thread_feature(std::size_t col) {
  return col == kThreadsColumn || (col >= 9 && col < kNumFeatures);
}

void set_thread_features(double t, std::span<double> row) {
  row[kThreadsColumn] = t;
  // Group 2 is Group 1 over t, minus the n_threads column itself.
  constexpr std::size_t kSerial[] = {0, 1, 2, 4, 5, 6, 7, 8};
  for (std::size_t i = 0; i < std::size(kSerial); ++i) {
    row[9 + i] = row[kSerial[i]] / t;
  }
}

std::array<double, kNumFeatures> make_features(double m, double k, double n,
                                               double t) {
  const double mk = m * k;
  const double mn = m * n;
  const double kn = k * n;
  const double mkn = m * k * n;
  const double total = mk + kn + mn;
  std::array<double, kNumFeatures> row{m, k, n, 0.0, mk, mn, kn, mkn, total};
  set_thread_features(t, row);
  return row;
}

std::array<double, kNumOpAwareFeatures> make_op_aware_features(
    double m, double k, double n, double t, blas::OpKind op,
    blas::kernels::Variant variant) {
  const auto base = make_features(m, k, n, t);
  std::array<double, kNumOpAwareFeatures> out{};
  std::copy(base.begin(), base.end(), out.begin());
  out[op_column(op)] = 1.0;
  if (variant != blas::kernels::Variant::kAuto) {
    out[kernel_column(variant)] = 1.0;
  }
  return out;
}

std::vector<std::size_t> resolve_columns(std::span<const std::string> names) {
  const auto& schema = op_aware_feature_names();
  std::vector<std::size_t> columns;
  columns.reserve(names.size());
  for (const auto& name : names) {
    const auto it = std::find(schema.begin(), schema.end(), name);
    columns.push_back(it == schema.end()
                          ? kNoSchemaColumn
                          : static_cast<std::size_t>(it - schema.begin()));
  }
  return columns;
}

bool op_served_first_class(blas::OpKind op,
                           std::span<const std::size_t> columns) {
  return op == blas::OpKind::kGemm || has_column(columns, op_column(op));
}

std::array<double, kNumOpAwareFeatures> make_query_row(
    std::span<const std::size_t> columns, double m, double k, double n,
    double t, blas::OpKind op, blas::kernels::Variant variant) {
  using blas::kernels::Variant;
  if (!op_served_first_class(op, columns)) op = blas::OpKind::kGemm;
  if (variant == Variant::kAuto) variant = blas::kernels::active_variant();
  while (variant != Variant::kGeneric &&
         !has_column(columns, kernel_column(variant))) {
    variant = static_cast<Variant>(static_cast<int>(variant) - 1);
  }
  return make_op_aware_features(m, k, n, t, op, variant);
}

std::vector<double> make_query_features(double m, double k, double n,
                                        double t, blas::OpKind op,
                                        blas::kernels::Variant variant,
                                        std::size_t width) {
  if (width != kNumFeatures && width != kNumOpAwareFeatures) {
    throw std::invalid_argument("make_query_features: width " +
                                std::to_string(width) +
                                " is neither the numeric nor the full schema");
  }
  if (variant == blas::kernels::Variant::kAuto) {
    variant = blas::kernels::active_variant();
  }
  const auto row = make_op_aware_features(m, k, n, t, op, variant);
  return {row.begin(), row.begin() + static_cast<std::ptrdiff_t>(width)};
}

}  // namespace adsala::preprocess
