#include "preprocess/features.h"

#include <algorithm>

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

/// Kernel-variant one-hot block appended after the op block. `n_cols` is 3
/// (current schema: generic, avx2, avx512) or 2 (legacy artefacts, which
/// predate the AVX-512 tier: an avx512 query is proxied as its nearest
/// tier, avx2, mirroring the GEMM proxy for unknown ops).
void set_kernel_onehots(blas::kernels::Variant variant, double* dst,
                        std::size_t n_cols) {
  using blas::kernels::Variant;
  dst[0] = variant == Variant::kGeneric ? 1.0 : 0.0;
  if (n_cols >= kNumKernelFeatures) {
    dst[1] = variant == Variant::kAvx2 ? 1.0 : 0.0;
    dst[2] = variant == Variant::kAvx512 ? 1.0 : 0.0;
  } else {
    dst[1] =
        variant == Variant::kAvx2 || variant == Variant::kAvx512 ? 1.0 : 0.0;
  }
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
  return col == 3 || (col >= 9 && col < kNumFeatures);
}

void set_thread_features(double t, std::span<double> row) {
  row[3] = t;
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
  for (std::size_t j = 0; j < kNumFeatures; ++j) out[j] = base[j];
  out[kNumFeatures + static_cast<std::size_t>(blas::op_code(op))] = 1.0;
  set_kernel_onehots(variant, out.data() + kNumFeatures + blas::kNumOps,
                     kNumKernelFeatures);
  return out;
}

namespace {

/// Width of the kernel one-hot block an artefact of this fitted width
/// carries: 3 from kFirstTripleKernelWidth (a frozen historical boundary —
/// see its definition for why it must not track the live schema constants)
/// upward, 2 for the closed legacy set {21, 23, 24}.
std::size_t kernel_cols_for_width(std::size_t pipeline_width) {
  return pipeline_width >= kFirstTripleKernelWidth ? kNumKernelFeatures
                                                   : kNumLegacyKernelFeatures;
}

}  // namespace

std::vector<double> make_query_features(double m, double k, double n,
                                        double t, blas::OpKind op,
                                        blas::kernels::Variant variant,
                                        std::size_t pipeline_width) {
  std::array<double, kNumOpAwareFeatures> row{};
  const std::size_t width =
      fill_query_features(m, k, n, t, op, variant, pipeline_width, row);
  return {row.begin(), row.begin() + static_cast<std::ptrdiff_t>(width)};
}

std::size_t fill_query_features(double m, double k, double n, double t,
                                blas::OpKind op,
                                blas::kernels::Variant variant,
                                std::size_t pipeline_width,
                                std::span<double, kNumOpAwareFeatures> out) {
  const auto base = make_features(m, k, n, t);
  std::copy(base.begin(), base.end(), out.begin());
  if (pipeline_width < kNumLegacyOpAwareFeatures) return kNumFeatures;
  // Every op-aware tier is 17 numeric + op one-hots + the kernel block (2
  // wide on legacy artefacts, 3 since the AVX-512 tier). Operations the
  // artefact's schema never saw are proxied as GEMM rows (their stored
  // shape already carries the equivalent-GEMM dimensions); a kernel variant
  // it never saw is proxied as the nearest tier it knows.
  const std::size_t n_kernel_cols = kernel_cols_for_width(pipeline_width);
  const std::size_t n_op_cols = std::min<std::size_t>(
      pipeline_width - kNumFeatures - n_kernel_cols, blas::kNumOps);
  const auto code = static_cast<std::size_t>(
      op_served_first_class(op, pipeline_width) ? blas::op_code(op)
                                                : blas::op_code(
                                                      blas::OpKind::kGemm));
  for (std::size_t j = 0; j < n_op_cols; ++j) {
    out[kNumFeatures + j] = j == code ? 1.0 : 0.0;
  }
  set_kernel_onehots(variant, out.data() + kNumFeatures + n_op_cols,
                     n_kernel_cols);
  return kNumFeatures + n_op_cols + n_kernel_cols;
}

bool op_served_first_class(blas::OpKind op, std::size_t pipeline_width) {
  if (pipeline_width < kNumLegacyOpAwareFeatures) {
    return op == blas::OpKind::kGemm;
  }
  const std::size_t n_op_cols = std::min<std::size_t>(
      pipeline_width - kNumFeatures - kernel_cols_for_width(pipeline_width),
      blas::kNumOps);
  return static_cast<std::size_t>(blas::op_code(op)) < n_op_cols;
}

}  // namespace adsala::preprocess
