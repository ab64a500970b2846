#include "ml/presorted.h"

#include <algorithm>
#include <tuple>

namespace adsala::ml {

SortedColumns::SortedColumns(const Dataset& data)
    : n_rows_(data.size()), entries_(data.size() * data.n_features()) {
  const std::size_t d = data.n_features();
  for (std::size_t j = 0; j < d; ++j) {
    ColumnEntry* col = entries_.data() + j * n_rows_;
    for (std::size_t r = 0; r < n_rows_; ++r) {
      col[r] = {data.row(r)[j], r};
    }
    std::sort(col, col + n_rows_,
              [](const ColumnEntry& a, const ColumnEntry& b) {
                return std::tie(a.value, a.row) < std::tie(b.value, b.row);
              });
  }
}

void ColumnBlock::carve(const SortedColumns& sorted,
                        std::span<const std::size_t> features,
                        std::span<const char> keep) {
  n_cols_ = features.size();
  n_rows_ = static_cast<std::size_t>(
      std::count_if(keep.begin(), keep.end(), [](char k) { return k != 0; }));
  entries_.resize(n_cols_ * n_rows_);
  right_.resize(n_rows_);
  goes_left_.resize(sorted.n_rows());
  for (std::size_t t = 0; t < n_cols_; ++t) {
    ColumnEntry* out = entries_.data() + t * n_rows_;
    for (const ColumnEntry& e : sorted.column(features[t])) {
      if (keep[e.row]) *out++ = e;
    }
  }
}

void ColumnBlock::split(std::span<const std::size_t> rows, std::size_t begin,
                        std::size_t mid, std::size_t end) {
  for (std::size_t i = begin; i < mid; ++i) goes_left_[rows[i]] = 1;
  for (std::size_t i = mid; i < end; ++i) goes_left_[rows[i]] = 0;
  for (std::size_t t = 0; t < n_cols_; ++t) {
    ColumnEntry* col = entries_.data() + t * n_rows_;
    std::size_t n_left = begin, n_right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (goes_left_[col[i].row]) {
        col[n_left++] = col[i];
      } else {
        right_[n_right++] = col[i];
      }
    }
    std::copy_n(right_.begin(), n_right, col + n_left);
  }
}

}  // namespace adsala::ml
