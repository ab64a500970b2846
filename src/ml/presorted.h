// Presorted feature columns: the exact greedy split search shared by the
// CART tree (DecisionTree, hence RandomForest and AdaBoost) and the
// XGBoost-style booster.
//
// Exact split finding scans each feature's values of a node in ascending
// order. Instead of building and sorting a (value, row) list at every node,
// each column is sorted once per fit by (value, row) (the column blocks of
// Chen & Guestrin, "XGBoost", KDD 2016, SS4.1; the presorted attribute lists
// of SLIQ, Mehta et al., EDBT 1996). A node owns the same [begin, end) range
// in every carved column that it owns in its builder's row list. Splitting a
// node stable-partitions each column's range by the rows that went left, so
// both halves stay sorted by (value, row): every node scans exactly the
// sequence a per-node std::sort of its (value, row) pairs would give, and
// gains, thresholds and leaf values are bit-identical to that search.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/dataset.h"

namespace adsala::ml {

struct ColumnEntry {
  double value = 0.0;
  std::size_t row = 0;
};

/// Every feature column of a dataset over all its rows, each sorted by
/// (value, row). Built once per fit.
class SortedColumns {
 public:
  explicit SortedColumns(const Dataset& data);

  std::size_t n_rows() const { return n_rows_; }
  std::span<const ColumnEntry> column(std::size_t j) const {
    return {entries_.data() + j * n_rows_, n_rows_};
  }

 private:
  std::size_t n_rows_ = 0;
  std::vector<ColumnEntry> entries_;  // column-major, n_rows_ per column
};

/// The columns one tree is grown on, partitioned down the tree node by node.
class ColumnBlock {
 public:
  /// Copies columns features[0], features[1], ... of `sorted`, keeping only
  /// the rows r with keep[r] set; keep holds one flag per dataset row. The
  /// root node then owns [0, number of kept rows) in every column.
  void carve(const SortedColumns& sorted,
             std::span<const std::size_t> features,
             std::span<const char> keep);

  /// Carved column t over a node's range [begin, end).
  std::span<const ColumnEntry> column(std::size_t t, std::size_t begin,
                                      std::size_t end) const {
    return {entries_.data() + t * n_rows_ + begin, end - begin};
  }

  /// Splits the node owning [begin, end) after its builder partitioned its
  /// row list: rows[begin, mid) went left and rows[mid, end) went right.
  /// Each column's range is stable-partitioned the same way, so the left
  /// child owns [begin, mid) and the right child [mid, end) in every column.
  void split(std::span<const std::size_t> rows, std::size_t begin,
             std::size_t mid, std::size_t end);

 private:
  std::size_t n_rows_ = 0;  // rows kept by carve()
  std::size_t n_cols_ = 0;
  std::vector<ColumnEntry> entries_;  // column-major, n_rows_ per column
  std::vector<ColumnEntry> right_;    // split() scratch
  std::vector<char> goes_left_;       // per dataset row, set by split()
};

}  // namespace adsala::ml
