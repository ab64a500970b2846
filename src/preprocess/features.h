// Feature engineering — THE canonical definition of the ADSALA feature
// schema. Every other component (GatherData::to_dataset, the trainer, the
// runtime query path in AdsalaGemm) references this header instead of
// restating the column list.
//
// == Base schema (paper Table II, 17 columns) =================================
//
//   idx  name              idx  name
//   ---  ----------------  ---  ----------------
//    0   m                  9   m/t
//    1   k                 10   k/t
//    2   n                 11   n/t
//    3   n_threads         12   m*k/t
//    4   m*k               13   m*n/t
//    5   m*n               14   k*n/t
//    6   k*n               15   m*k*n/t
//    7   m*k*n             16   (m*k+k*n+m*n)/t
//    8   m*k+k*n+m*n
//
// Group 1 (0-8) carries the serial-runtime terms, Group 2 (9-16) the
// per-thread parallel terms; the order above is the canonical feature order
// for every dataset in the project.
//
// == Op-aware schema (17 + kNumOps + 3 columns) ===============================
//
// Since the operation-aware gather (PR 2), datasets append one-hot
// categorical columns after the 17 numeric ones — one column per registered
// operation (blas/op.h table order == op code order) plus one per kernel
// variant. With the current five-op registry:
//
//   17  op_gemm          1 when the row timed a GEMM call
//   18  op_syrk          1 when the row timed a SYRK call (m == n equivalent
//                        shape: features 0-16 are computed from (n, k, n))
//   19  op_trsm          1 when the row timed a TRSM call (m == k equivalent
//                        shape (n, n, rhs_cols))
//   20  op_symm          1 when the row timed a SYMM call (same m == k
//                        convention as TRSM)
//   21  op_trmm          1 when the row timed a TRMM call (same m == k
//                        convention as TRSM)
//   22  kernel_generic   1 when the portable micro-kernel produced the timing
//   23  kernel_avx2      1 when the AVX2+FMA micro-kernel produced it
//   24  kernel_avx512    1 when the AVX-512F micro-kernel produced it
//
// Registering an operation (one blas/op.h row) grows the schema by exactly
// one op_* column; nothing here is edited. Categorical columns are passed
// through the preprocessing pipeline untransformed (no Yeo-Johnson, no
// standardisation; see preprocess::PipelineConfig::categorical) and columns
// that are constant over the training rows are dropped at fit time — a
// GEMM-only campaign therefore reduces to the base behaviour, and a model
// trained without the op columns answers family queries through the
// GEMM-proxy shape exactly as before.
//
// == Serving an artefact by column name =======================================
//
// Every artefact stores its input column names (`feature_names` in
// config.json). The pipeline resolves each name against
// op_aware_feature_names() when it is fitted or loaded, and a query row is
// always the canonical row above (make_op_aware_features), read through
// those indices. One rule adapts the query to the columns the artefact has:
//   - an op without an op_<op> column is queried as GEMM (the stored shape
//     already carries the equivalent-GEMM dimensions);
//   - kAuto resolves to the active kernel variant, and a variant without a
//     kernel_<v> column is queried as the nearest lower tier the artefact
//     has (avx512 -> avx2 -> generic).
// So an artefact from before the op or kernel one-hots, or from before an
// op was registered, keeps loading without a schema migration.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "blas/kernels/kernel_set.h"
#include "blas/op.h"

namespace adsala::preprocess {

/// Number of numeric Table-II features (base schema).
inline constexpr std::size_t kNumFeatures = 17;

/// One-hot kernel-variant columns (generic, avx2, avx512).
inline constexpr std::size_t kNumKernelFeatures = 3;

/// Total width of the op-aware schema: the numeric features, one op
/// one-hot per registered operation (blas/op.h), then the kernel block.
inline constexpr std::size_t kNumOpAwareFeatures =
    kNumFeatures + blas::kNumOps + kNumKernelFeatures;

/// Canonical base feature names, Group 1 then Group 2 (paper Table II).
const std::vector<std::string>& feature_names();

/// Canonical op-aware feature names: base schema + the op and kernel
/// one-hot columns.
const std::vector<std::string>& op_aware_feature_names();

/// Index set of the Group 1 (serial) features, for the feature ablation.
std::vector<std::size_t> group1_indices();

/// Indices of the categorical one-hot columns in the op-aware schema
/// (kNumFeatures..kNumOpAwareFeatures); feed these to
/// PipelineConfig::categorical.
std::vector<std::size_t> categorical_indices();

/// Computes the 17 numeric features for one configuration.
std::array<double, kNumFeatures> make_features(double m, double k, double n,
                                               double n_threads);

/// Canonical index of the n_threads column.
inline constexpr std::size_t kThreadsColumn = 3;

/// True for the canonical columns computed from n_threads (3 and 9..16);
/// the rest of a query row is the same at every grid point.
bool is_thread_feature(std::size_t col);

/// Rewrites the thread columns of a raw row for `n_threads`, from its
/// serial columns 0..8 (make_features builds every row this way).
void set_thread_features(double n_threads, std::span<double> row);

/// Computes the full op-aware row: numeric features plus the op / kernel
/// one-hots. For non-GEMM operations pass the equivalent-GEMM shape (SYRK:
/// m == n; TRSM/SYMM: m == k). `variant` must be concrete (resolve kAuto via
/// blas::kernels::active_variant() first); kAuto leaves every kernel column
/// zero.
std::array<double, kNumOpAwareFeatures> make_op_aware_features(
    double m, double k, double n, double n_threads, blas::OpKind op,
    blas::kernels::Variant variant);

/// Marks an input column whose name is not in op_aware_feature_names().
inline constexpr std::size_t kNoSchemaColumn = static_cast<std::size_t>(-1);

/// Resolves an artefact's input column names: entry j is the index of
/// names[j] in op_aware_feature_names(), or kNoSchemaColumn.
std::vector<std::size_t> resolve_columns(std::span<const std::string> names);

/// True when an artefact with these resolved input columns serves `op` from
/// its own op_<op> column; false when the query degrades to the GEMM proxy.
/// GEMM is always first-class: it is the proxy.
bool op_served_first_class(blas::OpKind op,
                           std::span<const std::size_t> columns);

/// The canonical row a query against an artefact with these resolved input
/// columns is scored from: the op and kernel variant adapted by the rule at
/// the top of this file, then make_op_aware_features. Read input column j
/// as row[columns[j]].
std::array<double, kNumOpAwareFeatures> make_query_row(
    std::span<const std::size_t> columns, double m, double k, double n,
    double n_threads, blas::OpKind op, blas::kernels::Variant variant);

/// The query row for an artefact whose columns are the canonical schema
/// (`width` kNumOpAwareFeatures) or its numeric prefix (kNumFeatures): the
/// row the serving path scores for it, with kAuto resolved. Throws
/// std::invalid_argument for any other width.
std::vector<double> make_query_features(double m, double k, double n,
                                        double n_threads, blas::OpKind op,
                                        blas::kernels::Variant variant,
                                        std::size_t width);

}  // namespace adsala::preprocess
