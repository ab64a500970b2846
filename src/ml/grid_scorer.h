// Exact thread-grid scoring for boosted tree ensembles from leaf bitmasks
// (QuickScorer, Lucchese et al., SIGIR 2015) and per-column prefix tables.
//
// A runtime query scores G rows that differ only in their thread columns.
// FlatEnsemble walks every tree once per row; this scorer answers all G
// rows from a few table rows per tree instead, and returns the same bits.
//
// Build. Each tree's leaves are numbered left to right (at most 64, one bit
// each). A split's mask clears the bits of the leaves in its left subtree:
// when x > threshold the walk goes right, so none of those leaves can be
// the exit. For each input column, sort its distinct split thresholds
// u0 < u1 < ...; table row r holds, per tree, the AND of the masks of that
// column's splits at u0..u_{r-1}, i.e. of the splits a value ranked r goes
// right at.
//
// Query. A value's rank is the number of its column's distinct thresholds
// strictly below it: x == threshold stays left, as `x <= threshold` does,
// and NaN (which `<=` sends right everywhere) takes the last row. The AND
// of every column's row holds, per tree, exactly the leaves not ruled out;
// the exit leaf is the lowest set bit, the leftmost leaf whose path the
// value satisfies. Columns shared by the G rows are ANDed once; columns
// fixed per grid point (n_threads: its transformed values are constants of
// a snapshot) are pre-ANDed into one mask per point at build time; the
// remaining per-point columns are ranked and ANDed per point.
//
// Leaf values are added to base_score in tree order, the order
// FlatEnsemble::sum adds them in, so every output is bit-identical to
// predict_grid on the same rows.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/flat_ensemble.h"

namespace adsala::ml {

/// Which input columns of a grid's rows differ between its grid points.
/// Every column listed in neither vector is shared by all points.
struct GridLayout {
  std::size_t n_points = 0;
  /// Columns whose value at each grid point is known when the scorer is
  /// built: fixed_values[g * fixed_cols.size() + i] is column fixed_cols[i]
  /// at point g.
  std::vector<std::size_t> fixed_cols;
  std::vector<double> fixed_values;
  /// Columns whose values come with each query, per grid point.
  std::vector<std::size_t> point_cols;
};

class GridScorer {
 public:
  /// One bit per leaf in a 64-bit mask.
  static constexpr std::size_t kMaxLeaves = 64;
  /// Every retained serving generation holds its own tables, so a model
  /// whose tables would outgrow this keeps the row path instead of pinning
  /// tens of MB per generation. The largest model measured (a 21-point
  /// Setonix-sim grid) needs 5.6 MB; the e2e model 3.5 MB.
  static constexpr std::size_t kMaxTableBytes = std::size_t{32} << 20;

  /// Scores base_score + the sum of `trees` (each rooted at node 0, leaf
  /// values as they are added) over grids laid out as `layout`. Returns
  /// null, with the reason in *why_not, when a tree has more than
  /// kMaxLeaves leaves, a threshold is NaN, the layout is inconsistent, or
  /// the tables would exceed kMaxTableBytes.
  static std::shared_ptr<const GridScorer> build(
      std::span<const std::vector<TreeNode>> trees, double base_score,
      const GridLayout& layout, std::string* why_not);

  std::size_t n_points() const { return n_points_; }
  /// Values per grid point that score() reads from point_values.
  std::size_t n_point_cols() const { return n_point_cols_; }
  /// Bytes of mask tables and per-point masks held by this scorer.
  std::size_t table_bytes() const { return table_bytes_; }

  /// out[g] for g < n_points(): base_score + every tree's leaf value for
  /// the row that holds `shared` in its shared columns, the build-time
  /// values of point g in the fixed columns, and point_values[g *
  /// n_point_cols() + i] in layout.point_cols[i]. Bit-identical to
  /// FlatEnsemble::sum over those rows. `shared` must cover every column a
  /// tree splits on; its fixed and point columns are not read.
  void score(std::span<const double> shared,
             std::span<const double> point_values,
             std::span<double> out) const;

 private:
  GridScorer() = default;

  /// One column's sorted distinct thresholds and the offset of its table
  /// (thresholds.size() + 1 rows of n_trees_ masks) in masks_.
  struct Column {
    std::size_t input = 0;        ///< input column index
    std::size_t point = 0;        ///< index into point_values (point cols)
    std::vector<double> thresholds;
    std::size_t offset = 0;
  };

  /// Row of `column`'s table that `x` selects.
  const std::uint64_t* row(const Column& column, double x) const;

  std::size_t n_trees_ = 0;
  std::size_t n_points_ = 0;
  std::size_t n_point_cols_ = 0;
  double base_score_ = 0.0;
  std::vector<Column> shared_;
  std::vector<Column> point_;
  std::vector<std::uint64_t> masks_;        ///< every column's table
  std::vector<std::uint64_t> point_masks_;  ///< n_points_ x n_trees_
  std::vector<std::uint32_t> leaf_base_;    ///< tree -> first leaf value
  std::vector<double> leaf_values_;         ///< left to right per tree
  std::size_t table_bytes_ = 0;
};

}  // namespace adsala::ml
