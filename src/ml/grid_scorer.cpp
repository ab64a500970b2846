#include "ml/grid_scorer.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace adsala::ml {

namespace {

/// One split of one tree: a value of `column` above `threshold` rules out
/// the leaves whose bits `mask` clears.
struct Split {
  std::size_t column = 0;
  double threshold = 0.0;
  std::uint32_t tree = 0;
  std::uint64_t mask = 0;
};

/// Appends the leaves under node `id` to `values`, left to right, and one
/// Split per internal node. `first` is the tree's first entry in `values`.
/// Returns an empty string, or why the tree cannot be scored from masks.
std::string number_leaves(std::span<const TreeNode> nodes, int id,
                          std::size_t depth, std::uint32_t tree,
                          std::size_t first, std::vector<double>& values,
                          std::vector<Split>& splits) {
  // A binary tree is at least one leaf wider than it is deep, so a node at
  // depth kMaxLeaves means more than kMaxLeaves leaves; stopping here also
  // bounds the recursion.
  if (depth >= GridScorer::kMaxLeaves) {
    return "tree " + std::to_string(tree) + " has more than " +
           std::to_string(GridScorer::kMaxLeaves) + " leaves";
  }
  if (id < 0 || static_cast<std::size_t>(id) >= nodes.size()) {
    return "tree " + std::to_string(tree) + " has a child out of range";
  }
  const TreeNode& node = nodes[static_cast<std::size_t>(id)];
  if (node.is_leaf()) {
    values.push_back(node.value);
    if (values.size() - first > GridScorer::kMaxLeaves) {
      return "tree " + std::to_string(tree) + " has more than " +
             std::to_string(GridScorer::kMaxLeaves) + " leaves";
    }
    return {};
  }
  if (std::isnan(node.threshold)) {
    return "tree " + std::to_string(tree) + " has a NaN threshold";
  }
  const std::size_t lo = values.size() - first;
  std::string why =
      number_leaves(nodes, node.left, depth + 1, tree, first, values, splits);
  if (!why.empty()) return why;
  const std::size_t hi = values.size() - first;
  // hi <= kMaxLeaves, and the right subtree adds at least one more leaf,
  // so the left subtree spans fewer than 64 bits here or fails below.
  const std::size_t width = hi - lo;
  const std::uint64_t left_bits =
      width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1) << lo;
  splits.push_back({static_cast<std::size_t>(node.feature), node.threshold,
                    tree, ~left_bits});
  return number_leaves(nodes, node.right, depth + 1, tree, first, values,
                       splits);
}

}  // namespace

std::shared_ptr<const GridScorer> GridScorer::build(
    std::span<const std::vector<TreeNode>> trees, double base_score,
    const GridLayout& layout, std::string* why_not) {
  auto refuse = [&](std::string why) -> std::shared_ptr<const GridScorer> {
    if (why_not != nullptr) *why_not = std::move(why);
    return nullptr;
  };
  const std::size_t n_points = layout.n_points;
  if (n_points == 0) return refuse("empty grid");
  if (layout.fixed_values.size() != n_points * layout.fixed_cols.size()) {
    return refuse("fixed_values does not hold one value per fixed column "
                  "and grid point");
  }
  std::vector<std::size_t> listed = layout.fixed_cols;
  listed.insert(listed.end(), layout.point_cols.begin(),
                layout.point_cols.end());
  std::sort(listed.begin(), listed.end());
  if (std::adjacent_find(listed.begin(), listed.end()) != listed.end()) {
    return refuse("a column is listed twice in the grid layout");
  }
  if (trees.size() > std::size_t{UINT32_MAX} / kMaxLeaves) {
    return refuse("too many trees");
  }

  std::shared_ptr<GridScorer> out(new GridScorer());
  GridScorer& s = *out;
  s.n_trees_ = trees.size();
  s.n_points_ = n_points;
  s.n_point_cols_ = layout.point_cols.size();
  s.base_score_ = base_score;

  std::vector<Split> splits;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const auto first = s.leaf_values_.size();
    s.leaf_base_.push_back(static_cast<std::uint32_t>(first));
    if (trees[t].empty()) {
      s.leaf_values_.push_back(0.0);  // as FlatEnsemble compiles it
      continue;
    }
    std::string why = number_leaves(trees[t], 0, 0,
                                    static_cast<std::uint32_t>(t), first,
                                    s.leaf_values_, splits);
    if (!why.empty()) return refuse(std::move(why));
  }
  std::sort(splits.begin(), splits.end(), [](const Split& a, const Split& b) {
    return a.column != b.column ? a.column < b.column
                                : a.threshold < b.threshold;
  });

  // Fixed columns: AND each grid point's masks now, straight from the
  // splits; their tables are never needed at query time.
  const std::size_t n_trees = s.n_trees_;
  s.point_masks_.assign(n_points * n_trees, ~std::uint64_t{0});
  for (const Split& split : splits) {
    const auto fixed = std::find(layout.fixed_cols.begin(),
                                 layout.fixed_cols.end(), split.column);
    if (fixed == layout.fixed_cols.end()) continue;
    const auto i = static_cast<std::size_t>(fixed - layout.fixed_cols.begin());
    for (std::size_t g = 0; g < n_points; ++g) {
      const double x = layout.fixed_values[g * layout.fixed_cols.size() + i];
      if (!(x <= split.threshold)) {
        s.point_masks_[g * n_trees + split.tree] &= split.mask;
      }
    }
  }

  // Every other split column gets a table: collect its distinct
  // thresholds, size the tables against the cap, then fill them.
  const std::size_t max_words = kMaxTableBytes / sizeof(std::uint64_t);
  std::size_t words = 0;
  for (std::size_t a = 0; a < splits.size();) {
    std::size_t b = a;
    Column column;
    column.input = splits[a].column;
    while (b < splits.size() && splits[b].column == column.input) {
      if (column.thresholds.empty() ||
          column.thresholds.back() != splits[b].threshold) {
        column.thresholds.push_back(splits[b].threshold);
      }
      ++b;
    }
    a = b;
    if (std::find(layout.fixed_cols.begin(), layout.fixed_cols.end(),
                  column.input) != layout.fixed_cols.end()) {
      continue;
    }
    column.offset = words;
    words += (column.thresholds.size() + 1) * n_trees;
    if (words + s.point_masks_.size() > max_words) {
      return refuse("mask tables would exceed " +
                    std::to_string(kMaxTableBytes >> 20) + " MiB");
    }
    const auto point = std::find(layout.point_cols.begin(),
                                 layout.point_cols.end(), column.input);
    if (point != layout.point_cols.end()) {
      column.point =
          static_cast<std::size_t>(point - layout.point_cols.begin());
      s.point_.push_back(std::move(column));
    } else {
      s.shared_.push_back(std::move(column));
    }
  }
  s.masks_.resize(words);
  for (const auto* columns : {&s.shared_, &s.point_}) {
    for (const Column& column : *columns) {
      auto split_at = std::lower_bound(
          splits.begin(), splits.end(), column.input,
          [](const Split& split, std::size_t col) { return split.column < col; });
      std::uint64_t* row = s.masks_.data() + column.offset;
      std::fill_n(row, n_trees, ~std::uint64_t{0});
      for (const double u : column.thresholds) {
        std::copy_n(row, n_trees, row + n_trees);
        row += n_trees;
        for (; split_at != splits.end() && split_at->column == column.input &&
               split_at->threshold == u;
             ++split_at) {
          row[split_at->tree] &= split_at->mask;
        }
      }
    }
  }
  s.table_bytes_ = (words + s.point_masks_.size()) * sizeof(std::uint64_t);
  return out;
}

const std::uint64_t* GridScorer::row(const Column& column, double x) const {
  const std::vector<double>& u = column.thresholds;
  const std::size_t rank =
      std::isnan(x) ? u.size()
                    : static_cast<std::size_t>(
                          std::lower_bound(u.begin(), u.end(), x) - u.begin());
  return masks_.data() + column.offset + rank * n_trees_;
}

void GridScorer::score(std::span<const double> shared,
                       std::span<const double> point_values,
                       std::span<double> out) const {
  const std::size_t n_trees = n_trees_;
  const std::size_t n_points = n_points_;
  // Per-thread scratch: after a thread's first call nothing is allocated.
  thread_local std::vector<std::uint64_t> acc, live;
  thread_local std::vector<std::uint32_t> leaf;
  acc.assign(n_trees, ~std::uint64_t{0});
  live.resize(n_trees);
  leaf.resize(n_points * n_trees);

  for (const Column& column : shared_) {
    const std::uint64_t* r = row(column, shared[column.input]);
    for (std::size_t t = 0; t < n_trees; ++t) acc[t] &= r[t];
  }
  for (std::size_t g = 0; g < n_points; ++g) {
    const std::uint64_t* fixed = point_masks_.data() + g * n_trees;
    for (std::size_t t = 0; t < n_trees; ++t) live[t] = acc[t] & fixed[t];
    for (const Column& column : point_) {
      const std::uint64_t* r =
          row(column, point_values[g * n_point_cols_ + column.point]);
      for (std::size_t t = 0; t < n_trees; ++t) live[t] &= r[t];
    }
    // The rightmost leaf's bit is never cleared, so a mask is never 0.
    std::uint32_t* exits = leaf.data() + g * n_trees;
    for (std::size_t t = 0; t < n_trees; ++t) {
      exits[t] = leaf_base_[t] +
                 static_cast<std::uint32_t>(std::countr_zero(live[t]));
    }
  }

  // Add in tree order per grid point, four points' sums interleaved so
  // their dependency chains overlap.
  const double* value = leaf_values_.data();
  std::size_t g = 0;
  for (; g + 4 <= n_points; g += 4) {
    const std::uint32_t* e0 = leaf.data() + g * n_trees;
    const std::uint32_t* e1 = e0 + n_trees;
    const std::uint32_t* e2 = e1 + n_trees;
    const std::uint32_t* e3 = e2 + n_trees;
    double s0 = base_score_, s1 = base_score_, s2 = base_score_,
           s3 = base_score_;
    for (std::size_t t = 0; t < n_trees; ++t) {
      s0 += value[e0[t]];
      s1 += value[e1[t]];
      s2 += value[e2[t]];
      s3 += value[e3[t]];
    }
    out[g] = s0;
    out[g + 1] = s1;
    out[g + 2] = s2;
    out[g + 3] = s3;
  }
  for (; g < n_points; ++g) {
    const std::uint32_t* e = leaf.data() + g * n_trees;
    double s = base_score_;
    for (std::size_t t = 0; t < n_trees; ++t) s += value[e[t]];
    out[g] = s;
  }
}

}  // namespace adsala::ml
