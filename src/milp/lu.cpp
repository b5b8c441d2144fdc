#include "milp/lu.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace transtore::milp {

bool basis_lu::factorize(int m, const std::vector<sparse_column>& columns) {
  require(static_cast<int>(columns.size()) == m, "basis_lu: bad column count");
  in_start_.assign(1, 0);
  in_rows_.clear();
  in_values_.clear();
  for (const sparse_column& c : columns) {
    for (const auto& [i, v] : c) {
      in_rows_.push_back(i);
      in_values_.push_back(v);
    }
    in_start_.push_back(static_cast<int>(in_rows_.size()));
  }
  return factorize(m, in_start_, in_rows_, in_values_);
}

void basis_lu::gather_column(int col, int stamp,
                             std::vector<std::pair<int, double>>& out) {
  // Gather the valid entries of column `col`, compacting its row list. A
  // row can appear twice in the list -- a stale copy from a cancelled
  // entry plus a later re-fill -- so gathered rows are stamped: processing
  // a duplicate would eliminate the same row twice and corrupt both the
  // values and the Markowitz counts.
  out.clear();
  int* list = col_rows_.data(col);
  const int size = col_rows_.size(col);
  int keep = 0;
  for (int s = 0; s < size; ++s) {
    const int i = list[s];
    if (row_done_[i] || gather_mark_[i] == stamp) continue;
    const row_entry* e = nullptr;
    for (const row_entry* r = rows_.begin(i); r != rows_.end(i); ++r)
      if (r->col == col) {
        e = r;
        break;
      }
    if (e == nullptr) continue; // cancelled
    gather_mark_[i] = stamp;
    list[keep++] = i;
    out.emplace_back(i, e->value);
  }
  col_rows_.resize(col, keep);
}

bool basis_lu::factorize(int m, std::span<const int> start,
                         std::span<const int> rows,
                         std::span<const double> values) {
  require(static_cast<int>(start.size()) == m + 1, "basis_lu: bad column count");
  m_ = m;
  valid_ = false;

  pivot_row_.assign(m, -1);
  pivot_col_.assign(m, -1);
  l_start_.assign(1, 0);
  l_row_.clear();
  l_value_.clear();
  u_start_.assign(1, 0);
  u_col_.clear();
  u_value_.clear();
  u_pivot_.assign(m, 0.0);
  work_.assign(m, 0.0);
  if (m == 0) {
    ucol_start_.assign(1, 0);
    ucol_step_.clear();
    ucol_value_.clear();
    valid_ = true;
    return true;
  }

  // Active matrix. Counting pass first (it also validates, column by
  // column), so each row and column list is laid out at its exact size.
  col_count_.assign(m, 0);
  row_count_.assign(m, 0);
  for (int p = 0; p < m; ++p) {
    for (int k = start[p]; k < start[p + 1]; ++k) {
      const int i = rows[k];
      require(i >= 0 && i < m, "basis_lu: row index out of range");
      if (values[k] == 0.0) continue;
      ++col_count_[p];
      ++row_count_[i];
    }
    if (col_count_[p] == 0) return false; // structurally singular
  }
  rows_.reset(m);
  col_rows_.reset(m);
  for (int i = 0; i < m; ++i) rows_.make_room(i, row_count_[i]);
  for (int p = 0; p < m; ++p) {
    col_rows_.make_room(p, col_count_[p]);
    for (int k = start[p]; k < start[p + 1]; ++k) {
      const int i = rows[k];
      const double v = values[k];
      if (v == 0.0) continue;
      rows_.push_back(i, {p, v});
      col_rows_.push_back(p, i);
    }
  }

  bucket_.reset(m + 1);
  for (int p = 0; p < m; ++p) bucket_.push_back(col_count_[p], p);
  auto rebucket = [&](int col) { bucket_.push_back(col_count_[col], col); };

  row_done_.assign(m, 0);
  col_done_.assign(m, 0);
  dense_.assign(m, 0.0);
  present_.assign(m, 0);
  gather_mark_.assign(m, -1);
  int gather_stamp = -1;
  cached_col_ = -1;

  for (int k = 0; k < m; ++k) {
    // ---------------------------------------------------- Markowitz search
    int best_row = -1;
    int best_col = -1;
    double best_value = 0.0;
    long best_cost = std::numeric_limits<long>::max();
    int examined = 0;

    for (int count = 0; count <= m && best_cost > 0; ++count) {
      if (count == 0) {
        // A live column can never sit in bucket 0: count 0 means every
        // entry cancelled, i.e. the basis became numerically singular.
        for (const int* j = bucket_.begin(0); j != bucket_.end(0); ++j)
          if (!col_done_[*j] && col_count_[*j] == 0) return false;
        continue;
      }
      int idx = 0;
      while (idx < bucket_.size(count)) {
        const int j = bucket_.data(count)[idx];
        if (col_done_[j] || col_count_[j] != count) {
          // stale: drop (order is still deterministic)
          bucket_.data(count)[idx] = bucket_.back(count);
          bucket_.pop_back(count);
          continue;
        }
        ++idx;
        std::vector<std::pair<int, double>>& entries = scratch_entries_;
        gather_column(j, ++gather_stamp, entries);
        double colmax = 0.0;
        for (const auto& [i, v] : entries) colmax = std::max(colmax, std::abs(v));
        if (colmax < options_.pivot_tolerance)
          return false; // numerically dependent column
        const double admissible =
            std::max(options_.pivot_tolerance, options_.suhl_threshold * colmax);
        int cand_row = -1;
        double cand_value = 0.0;
        long cand_cost = std::numeric_limits<long>::max();
        for (const auto& [i, v] : entries) {
          if (std::abs(v) < admissible) continue;
          const long cost = static_cast<long>(row_count_[i] - 1) *
                            static_cast<long>(count - 1);
          if (cost < cand_cost || (cost == cand_cost && i < cand_row)) {
            cand_cost = cost;
            cand_row = i;
            cand_value = v;
          }
        }
        if (cand_row < 0) continue; // every admissible entry was below Suhl
        ++examined;
        if (cand_cost < best_cost) {
          best_cost = cand_cost;
          best_row = cand_row;
          best_col = j;
          best_value = cand_value;
          cached_col_ = j;
          std::swap(cached_entries_, scratch_entries_);
        }
        if (best_cost == 0) break;
        if (count > 1 && examined >= options_.search_columns) break;
      }
      if (best_col >= 0 && (best_cost == 0 ||
                            (count > 1 && examined >= options_.search_columns)))
        break;
    }
    if (best_col < 0) return false; // no admissible pivot anywhere

    // -------------------------------------------------------- elimination
    const int pr = best_row;
    const int pc = best_col;
    const double pv = best_value;
    pivot_row_[k] = pr;
    pivot_col_[k] = pc;
    u_pivot_[k] = pv;
    row_done_[pr] = 1;
    col_done_[pc] = 1;

    // The pivot row's remaining entries become U row k and leave the
    // active matrix. They are copied out once: the row merges below may
    // relocate rows inside the arena.
    pivot_entries_.clear();
    for (const row_entry* e = rows_.begin(pr); e != rows_.end(pr); ++e)
      if (e->col != pc) pivot_entries_.push_back(*e);
    for (const row_entry& e : pivot_entries_) {
      if (col_done_[e.col]) continue;
      u_col_.push_back(e.col);
      u_value_.push_back(e.value);
      --col_count_[e.col];
      rebucket(e.col);
    }
    u_start_.push_back(static_cast<int>(u_col_.size()));

    // Eliminate column pc from every other active row. The candidate cache
    // holds exactly the valid (row, value) entries of the pivot column.
    if (cached_col_ != pc) gather_column(pc, ++gather_stamp, cached_entries_);
    for (const auto& [i, a_ipc] : cached_entries_) {
      if (i == pr || row_done_[i]) continue;
      const double mult = a_ipc / pv;
      l_row_.push_back(i);
      l_value_.push_back(mult);

      // row_i -= mult * row_pr, dropping the pivot column.
      pattern_.clear();
      for (const row_entry* e = rows_.begin(i); e != rows_.end(i); ++e) {
        if (e->col == pc) continue; // eliminated exactly
        dense_[e->col] = e->value;
        present_[e->col] = 1;
        pattern_.push_back(e->col);
      }
      for (const row_entry& e : pivot_entries_) {
        if (!present_[e.col]) {
          present_[e.col] = 1;
          pattern_.push_back(e.col);
          dense_[e.col] = 0.0;
          // Fill-in: column e.col gains an entry in row i.
          col_rows_.push_back(e.col, i);
          ++col_count_[e.col];
          rebucket(e.col);
        }
        dense_[e.col] -= mult * e.value;
      }
      rows_.make_room(i, static_cast<int>(pattern_.size()));
      row_entry* target = rows_.data(i);
      int size = 0;
      for (const int c : pattern_) {
        const double v = dense_[c];
        dense_[c] = 0.0;
        present_[c] = 0;
        if (v == 0.0) {
          // Exact cancellation: the entry leaves column c.
          --col_count_[c];
          rebucket(c);
          continue;
        }
        target[size++] = {c, v};
      }
      rows_.resize(i, size);
      row_count_[i] = size;
    }
    // The pivot column's entries (including the pivot) are gone.
    col_count_[pc] = 0;
    col_rows_.clear(pc);
    rows_.clear(pr);
    l_start_.push_back(static_cast<int>(l_row_.size()));
    cached_col_ = -1;
  }

  // Column-wise U for btran: map each U entry's basis position to its pivot
  // step and bucket by that step.
  step_of_position_.assign(m, -1);
  for (int k = 0; k < m; ++k) step_of_position_[pivot_col_[k]] = k;
  ucol_start_.assign(static_cast<std::size_t>(m) + 1, 0);
  for (const int c : u_col_)
    ++ucol_start_[static_cast<std::size_t>(step_of_position_[c]) + 1];
  for (int k = 0; k < m; ++k)
    ucol_start_[static_cast<std::size_t>(k) + 1] += ucol_start_[static_cast<std::size_t>(k)];
  ucol_step_.assign(u_col_.size(), 0);
  ucol_value_.assign(u_col_.size(), 0.0);
  cursor_.assign(ucol_start_.begin(), ucol_start_.end() - 1);
  for (int k = 0; k < m; ++k) {
    for (int idx = u_start_[k]; idx < u_start_[k + 1]; ++idx) {
      const int j = step_of_position_[u_col_[static_cast<std::size_t>(idx)]];
      ucol_step_[static_cast<std::size_t>(cursor_[j])] = k;
      ucol_value_[static_cast<std::size_t>(cursor_[j])] =
          u_value_[static_cast<std::size_t>(idx)];
      ++cursor_[j];
    }
  }

  valid_ = true;
  return true;
}

void basis_lu::ftran(const std::vector<double>& rhs,
                     std::vector<double>& x) const {
  require(valid_, "basis_lu: ftran without a valid factorization");
  work_.assign(rhs.begin(), rhs.end());
  // Apply the elimination steps: v[row] -= mult * v[pivot_row_[k]].
  for (int k = 0; k < m_; ++k) {
    const double t = work_[pivot_row_[k]];
    if (t == 0.0) continue;
    for (int idx = l_start_[k]; idx < l_start_[k + 1]; ++idx)
      work_[l_row_[static_cast<std::size_t>(idx)]] -=
          l_value_[static_cast<std::size_t>(idx)] * t;
  }
  // Back substitution through U (positions pivoted later are solved first).
  x.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    double s = work_[pivot_row_[k]];
    for (int idx = u_start_[k]; idx < u_start_[k + 1]; ++idx)
      s -= u_value_[static_cast<std::size_t>(idx)] *
           x[u_col_[static_cast<std::size_t>(idx)]];
    x[pivot_col_[k]] = s / u_pivot_[k];
  }
}

void basis_lu::btran(const std::vector<double>& z,
                     std::vector<double>& y) const {
  require(valid_, "basis_lu: btran without a valid factorization");
  // Forward solve U^T w = z; w is indexed by pivot step.
  for (int k = 0; k < m_; ++k) {
    double s = z[pivot_col_[k]];
    for (int idx = ucol_start_[k]; idx < ucol_start_[k + 1]; ++idx)
      s -= ucol_value_[static_cast<std::size_t>(idx)] *
           work_[ucol_step_[static_cast<std::size_t>(idx)]];
    work_[k] = s / u_pivot_[k];
  }
  // y = M^T w: scatter w to constraint rows, then apply the transposed
  // elimination steps newest-first (y[pivot_row] -= mult * y[row]).
  y.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) y[pivot_row_[k]] = work_[k];
  for (int k = m_ - 1; k >= 0; --k) {
    double s = y[pivot_row_[k]];
    for (int idx = l_start_[k]; idx < l_start_[k + 1]; ++idx)
      s -= l_value_[static_cast<std::size_t>(idx)] *
           y[l_row_[static_cast<std::size_t>(idx)]];
    y[pivot_row_[k]] = s;
  }
}

} // namespace transtore::milp
