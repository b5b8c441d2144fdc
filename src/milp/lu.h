// Sparse LU factorization of a simplex basis.
//
// Replaces the dense `B0^-1` representation for large LPs: the basis matrix
// B (columns indexed by basis position, rows by constraint row) is factored
// as M B = U by sparse Gaussian elimination with
//
//   * Markowitz pivoting -- each pivot minimizes the fill estimate
//     (row_count - 1) * (col_count - 1) over a bounded candidate search
//     driven by column-count buckets (singleton columns are free);
//   * Suhl-style threshold partial pivoting -- an entry is admissible only
//     when |a_ij| >= suhl_threshold * max|a_*j| over the active column, so
//     sparsity never buys a numerically poisonous pivot;
//
// and stored as the elimination multipliers (L, applied as a sequence of
// row operations) plus the permuted upper triangle U (row-wise for ftran's
// back substitution, column-wise for btran's forward substitution).
//
// ftran solves B x = b (right-hand side in constraint-row space, solution
// in basis-position space); btran solves B^T y = z (the transpose map used
// for duals and tableau rows). Both are O(m + factor nonzeros) instead of
// the dense engine's O(m^2).
//
// The factorization is immutable: simplex pivots are layered on top as
// product-form eta vectors by the caller (eta-on-LU), and fill/accuracy
// triggers request a fresh factorize(). All tie-breaking is by lowest
// index, so repeated factorizations of the same basis are bit-identical.
//
// Workspace reuse. One basis_lu is meant to be refactorized many times (the
// simplex keeps one for its lifetime). Everything factorize() needs -- the
// active matrix, the per-column row lists, the Markowitz count buckets, the
// dense scratch and the L/U arrays -- is owned by the object, stored flat
// (a few large arrays, see detail::list_arena) and kept between calls, so a
// refactorization of a basis no larger than an earlier one allocates
// nothing. The storage is sized by the largest factorization seen and freed
// with the object; there is no shared or static state. Reuse never changes
// a result: each factorize() resets the workspace's logical state first, so
// the pivot sequence, the order of every floating-point operation, and
// hence L, U, factor_nonzeros() and every ftran/btran output are bitwise
// equal to a fresh object's on the same input -- also after an earlier
// call failed part-way on a singular basis.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace transtore::milp {

/// Tunables for one factorization.
struct lu_options {
  /// Absolute floor on pivot magnitude; a column whose largest active entry
  /// is below this is numerically dependent and the basis singular.
  double pivot_tolerance = 1e-11;
  /// Suhl threshold: admissible pivots satisfy |a| >= threshold * colmax.
  double suhl_threshold = 0.1;
  /// Columns (beyond the singleton bucket) examined per Markowitz search.
  int search_columns = 8;
};

namespace detail {

/// A family of growable lists stored back to back in one array. Each list
/// owns a slice [start, start + capacity); a push beyond the capacity
/// relocates the list to the tail with doubled capacity, and when the tail
/// is full the live lists are compacted (in memory order) before the array
/// grows. Lists behave exactly like std::vector (push_back, swap-and-pop,
/// in-place rewrite), so code ported from vector-of-vectors keeps its
/// element order. reset() empties every list but keeps the array.
template <class T>
class list_arena {
public:
  /// Start over with `lists` empty lists; storage is retained.
  void reset(int lists) {
    start_.assign(static_cast<std::size_t>(lists), 0);
    size_.assign(static_cast<std::size_t>(lists), 0);
    capacity_.assign(static_cast<std::size_t>(lists), 0);
    prev_.assign(static_cast<std::size_t>(lists), -1);
    next_.assign(static_cast<std::size_t>(lists), -1);
    head_ = tail_ = -1;
    used_ = 0;
  }

  [[nodiscard]] int size(int l) const { return size_[idx(l)]; }
  [[nodiscard]] T* data(int l) { return data_.data() + start_[idx(l)]; }
  [[nodiscard]] T* begin(int l) { return data(l); }
  [[nodiscard]] T* end(int l) { return data(l) + size(l); }
  [[nodiscard]] T& back(int l) { return data(l)[size(l) - 1]; }

  void push_back(int l, const T& value) {
    if (size_[idx(l)] == capacity_[idx(l)])
      place(l, std::max(4, 2 * capacity_[idx(l)]), /*keep=*/true);
    data_[static_cast<std::size_t>(start_[idx(l)] + size_[idx(l)]++)] = value;
  }
  void pop_back(int l) { --size_[idx(l)]; }
  /// Shrink (never grow) list l to n entries.
  void resize(int l, int n) { size_[idx(l)] = n; }
  void clear(int l) { size_[idx(l)] = 0; }

  /// Give empty-or-discardable list l room for `n` entries (its content is
  /// dropped when it has to move); the caller rewrites it and resize()s.
  void make_room(int l, int n) {
    if (capacity_[idx(l)] < n) place(l, n, /*keep=*/false);
  }

private:
  std::vector<T> data_;
  std::vector<int> start_, size_, capacity_;
  // Doubly linked chain of the lists holding a slice, in memory order.
  std::vector<int> prev_, next_;
  int head_ = -1, tail_ = -1;
  int used_ = 0; // slots handed out so far (live or dead)
  std::vector<T> carry_; // a relocating list's entries across a compaction

  static std::size_t idx(int l) { return static_cast<std::size_t>(l); }

  void unlink(int l) {
    const int p = prev_[idx(l)], n = next_[idx(l)];
    (p >= 0 ? next_[idx(p)] : head_) = n;
    (n >= 0 ? prev_[idx(n)] : tail_) = p;
    prev_[idx(l)] = next_[idx(l)] = -1;
  }

  /// Move list l to a fresh slice of `cap` slots at the tail, keeping its
  /// entries when `keep` is set.
  void place(int l, int cap, bool keep) {
    const int n = keep ? size_[idx(l)] : 0;
    if (capacity_[idx(l)] > 0) unlink(l);
    capacity_[idx(l)] = 0;
    size_[idx(l)] = n;
    const auto from = data_.begin() + start_[idx(l)];
    const std::size_t need =
        static_cast<std::size_t>(used_) + static_cast<std::size_t>(cap);
    if (need <= data_.size()) {
      std::copy(from, from + n, data_.begin() + used_);
    } else {
      carry_.assign(from, from + n);
      compact();
      const std::size_t after =
          static_cast<std::size_t>(used_) + static_cast<std::size_t>(cap);
      // Grow when compaction left less than a quarter free, so the next
      // compaction is at least that far away.
      if (after + data_.size() / 4 > data_.size())
        data_.resize(std::max(after + after / 2, data_.size() * 2));
      std::copy(carry_.begin(), carry_.end(), data_.begin() + used_);
    }
    start_[idx(l)] = used_;
    capacity_[idx(l)] = cap;
    used_ += cap;
    prev_[idx(l)] = tail_;
    (tail_ >= 0 ? next_[idx(tail_)] : head_) = l;
    tail_ = l;
  }

  /// Slide every live list left over the dead space, keeping memory order;
  /// empty lists give up their slice.
  void compact() {
    int write = 0;
    for (int l = head_; l >= 0;) {
      const int next = next_[idx(l)];
      const int n = size_[idx(l)];
      if (n == 0) {
        unlink(l);
        capacity_[idx(l)] = 0;
      } else {
        const auto from = data_.begin() + start_[idx(l)];
        if (start_[idx(l)] != write)
          std::copy(from, from + n, data_.begin() + write);
        start_[idx(l)] = write;
        capacity_[idx(l)] = n;
        write += n;
      }
      l = next;
    }
    used_ = write;
  }
};

} // namespace detail

class basis_lu {
public:
  explicit basis_lu(lu_options options = {}) : options_(options) {}

  /// Sparse column: (constraint row, value) entries, rows distinct.
  using sparse_column = std::vector<std::pair<int, double>>;

  /// Factor the m x m basis whose position-p column is `columns[p]`.
  /// Returns false (and invalidates the factorization) when the basis is
  /// structurally or numerically singular.
  bool factorize(int m, const std::vector<sparse_column>& columns);

  /// The same factorization over a compressed-column basis: column p's
  /// entries are rows[start[p] .. start[p+1]) with matching `values`
  /// (start has m + 1 entries, rows distinct within a column).
  bool factorize(int m, std::span<const int> start, std::span<const int> rows,
                 std::span<const double> values);

  /// Tunables used by the next factorize().
  void set_options(const lu_options& options) { options_ = options; }

  /// Solve B x = rhs: rhs indexed by constraint row, x by basis position.
  void ftran(const std::vector<double>& rhs, std::vector<double>& x) const;

  /// Solve B^T y = z: z indexed by basis position, y by constraint row.
  void btran(const std::vector<double>& z, std::vector<double>& y) const;

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] int dimension() const { return m_; }
  /// Nonzeros of L + U (diagonal included) of the last factorization.
  [[nodiscard]] std::size_t factor_nonzeros() const {
    return l_row_.size() + u_col_.size() + static_cast<std::size_t>(m_);
  }

private:
  lu_options options_;
  int m_ = 0;
  bool valid_ = false;

  // Pivot sequence: step k eliminated constraint row pivot_row_[k] and
  // basis position pivot_col_[k].
  std::vector<int> pivot_row_;
  std::vector<int> pivot_col_;

  // L: per elimination step, the multipliers (constraint row, value),
  // flattened; applying step k subtracts value * v[pivot_row_[k]] from
  // v[row].
  std::vector<int> l_start_; // size m+1
  std::vector<int> l_row_;
  std::vector<double> l_value_;

  // U rows in pivot order: entries on later-pivoted basis positions.
  std::vector<int> u_start_; // size m+1
  std::vector<int> u_col_;   // basis positions
  std::vector<double> u_value_;
  std::vector<double> u_pivot_; // size m: diagonal of step k

  // U columns for btran: entries (earlier pivot step, value).
  std::vector<int> ucol_start_; // size m+1
  std::vector<int> ucol_step_;
  std::vector<double> ucol_value_;

  mutable std::vector<double> work_; // size m scratch for the solves

  // ---- factorization workspace (contents meaningful only inside
  // factorize(); kept for its storage).
  struct row_entry {
    int col; // basis position
    double value;
  };
  // Active matrix: exact row-wise storage plus per-column row lists that
  // may carry stale rows (cancelled entries, pivoted rows) and are
  // compacted lazily. col_count_ / row_count_ are kept exact -- they drive
  // Markowitz.
  detail::list_arena<row_entry> rows_;
  detail::list_arena<int> col_rows_;
  // Column-count buckets with lazy deletion: a column is (re)pushed
  // whenever its count changes; entries whose recorded count disagrees
  // are stale.
  detail::list_arena<int> bucket_;
  std::vector<int> col_count_;
  std::vector<int> row_count_;
  std::vector<char> row_done_;
  std::vector<char> col_done_;
  // Dense scratch for the row merges.
  std::vector<double> dense_;
  std::vector<char> present_;
  std::vector<int> pattern_;
  // The pivot row's off-pivot entries of the current step.
  std::vector<row_entry> pivot_entries_;
  // Valid (row, value) entries of one candidate column, gathered during
  // the pivot search and reused by the elimination when that column is
  // chosen (cached_col_ names it, -1 when none).
  int cached_col_ = -1;
  std::vector<std::pair<int, double>> cached_entries_;
  std::vector<std::pair<int, double>> scratch_entries_;
  std::vector<int> gather_mark_;
  std::vector<int> step_of_position_;
  std::vector<int> cursor_;
  // Compressed copy of the columns handed to the vector-of-columns
  // overload.
  std::vector<int> in_start_;
  std::vector<int> in_rows_;
  std::vector<double> in_values_;

  void gather_column(int col, int stamp,
                     std::vector<std::pair<int, double>>& out);
};

} // namespace transtore::milp
