#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "numeric/linear_error.hpp"
#include "numeric/schur_lu.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace oxmlc::num {
namespace {

struct Entry {
  std::size_t col;
  double value;
};

// refactorize() rejects a frozen pivot smaller than this fraction of the
// largest magnitude left in its row.
constexpr double kDegradeRatio = 1e-8;

// Hot-path telemetry for the cached factorization path.
struct SparseLuMetrics {
  obs::Counter& pattern_hits = obs::registry().counter("sparse_lu.pattern_hits");
  obs::Counter& pattern_misses = obs::registry().counter("sparse_lu.pattern_misses");
  obs::Counter& fallbacks = obs::registry().counter("sparse_lu.refactorize_fallbacks");

  static SparseLuMetrics& get() {
    static SparseLuMetrics metrics;
    return metrics;
  }
};

}  // namespace

void SparseLu::factorize(const CsrMatrix& a) {
  n_ = a.size();
  perm_.resize(n_);

  // Per-row factor output, flattened after elimination.
  std::vector<std::vector<Entry>> lower(n_);
  std::vector<std::vector<Entry>> upper(n_);

  // Working rows: sorted (col, value) vectors, mutated during elimination.
  std::vector<std::vector<Entry>> rows(n_);
  {
    const auto offsets = a.row_offsets();
    const auto cols = a.col_indices();
    const auto vals = a.values();
    for (std::size_t r = 0; r < n_; ++r) {
      rows[r].reserve(offsets[r + 1] - offsets[r]);
      for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
        rows[r].push_back({cols[k], vals[k]});
      }
    }
  }

  // row_order[i] = index into `rows` of the row currently in position i.
  std::vector<std::size_t> row_order(n_);
  for (std::size_t i = 0; i < n_; ++i) row_order[i] = i;

  // Dense scatter buffer for row updates.
  std::vector<double> work(n_, 0.0);
  std::vector<bool> occupied(n_, false);
  std::vector<std::size_t> touched;
  touched.reserve(64);

  auto leading_value = [&](std::size_t physical_row, std::size_t col) -> double {
    const auto& row = rows[physical_row];
    const auto it = std::lower_bound(
        row.begin(), row.end(), col,
        [](const Entry& e, std::size_t c) { return e.col < c; });
    return (it != row.end() && it->col == col) ? it->value : 0.0;
  };

  for (std::size_t k = 0; k < n_; ++k) {
    // Partial pivoting among remaining rows.
    std::size_t best = k;
    double best_mag = std::fabs(leading_value(row_order[k], k));
    for (std::size_t i = k + 1; i < n_; ++i) {
      const double mag = std::fabs(leading_value(row_order[i], k));
      if (mag > best_mag) {
        best_mag = mag;
        best = i;
      }
    }
    if (best_mag < kPivotTolerance) {
      throw SingularMatrixError(
          "SparseLu: numerically singular matrix at column " + std::to_string(k), k);
    }
    std::swap(row_order[k], row_order[best]);
    const std::size_t pivot_physical = row_order[k];
    const double pivot = leading_value(pivot_physical, k);

    // Move the pivot row's entries (col >= k) into U.
    auto& prow = rows[pivot_physical];
    for (const Entry& e : prow) {
      if (e.col >= k) upper[k].push_back(e);
    }

    // Eliminate column k from all remaining rows that contain it.
    for (std::size_t i = k + 1; i < n_; ++i) {
      const std::size_t r = row_order[i];
      const double a_rk = leading_value(r, k);
      if (a_rk == 0.0) continue;
      const double factor = a_rk / pivot;
      lower[i].push_back({k, factor});

      // Scatter row r (cols > k) into the work buffer...
      touched.clear();
      for (const Entry& e : rows[r]) {
        if (e.col <= k) continue;
        work[e.col] = e.value;
        occupied[e.col] = true;
        touched.push_back(e.col);
      }
      // ...subtract factor * pivot row...
      for (const Entry& e : upper[k]) {
        if (e.col == k) continue;
        if (!occupied[e.col]) {
          occupied[e.col] = true;
          work[e.col] = 0.0;
          touched.push_back(e.col);
        }
        work[e.col] -= factor * e.value;
      }
      // ...and gather back sorted.
      std::sort(touched.begin(), touched.end());
      auto& row = rows[r];
      row.clear();
      for (std::size_t col : touched) {
        if (work[col] != 0.0) row.push_back({col, work[col]});
        occupied[col] = false;
      }
    }
    rows[pivot_physical].clear();
    rows[pivot_physical].shrink_to_fit();
  }

  perm_ = row_order;

  // Flatten the factors (L rows carry ascending elimination columns by
  // construction; U rows are sorted with the diagonal first).
  l_offsets_.assign(n_ + 1, 0);
  u_offsets_.assign(n_ + 1, 0);
  l_cols_.clear();
  l_values_.clear();
  u_cols_.clear();
  u_values_.clear();
  u_diag_.assign(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    l_offsets_[i] = l_cols_.size();
    for (const Entry& e : lower[i]) {
      l_cols_.push_back(e.col);
      l_values_.push_back(e.value);
    }
    u_offsets_[i] = u_cols_.size();
    for (const Entry& e : upper[i]) {
      u_cols_.push_back(e.col);
      u_values_.push_back(e.value);
    }
    u_diag_[i] = upper[i].front().value;
  }
  l_offsets_[n_] = l_cols_.size();
  u_offsets_[n_] = u_cols_.size();

  // Freeze the input pattern as the refactorize() key. The numeric fill
  // pattern flattened above may omit entries a different-valued matrix would
  // produce (exact cancellations), so the structural pattern is re-derived by
  // analyze() on the first refactorize.
  a_offsets_.assign(a.row_offsets().begin(), a.row_offsets().end());
  a_cols_.assign(a.col_indices().begin(), a.col_indices().end());
  analyzed_ = false;
}

bool SparseLu::pattern_matches(const CsrMatrix& a) const {
  return a.size() == n_ &&
         a.row_offsets().size() == a_offsets_.size() &&
         a.col_indices().size() == a_cols_.size() &&
         std::equal(a.row_offsets().begin(), a.row_offsets().end(), a_offsets_.begin()) &&
         std::equal(a.col_indices().begin(), a.col_indices().end(), a_cols_.begin());
}

void SparseLu::analyze(const CsrMatrix& a) {
  // Structural elimination under the frozen permutation: entry presence only,
  // no values, so no cancellation — the resulting L/U patterns are supersets
  // of every numeric factorization that uses perm_. inv_perm maps a physical
  // A row to its elimination position.
  std::vector<std::size_t> inv_perm(n_);
  for (std::size_t i = 0; i < n_; ++i) inv_perm[perm_[i]] = i;

  std::vector<std::vector<std::size_t>> u_pattern(n_);
  std::vector<char> occupied(n_, 0);
  std::vector<std::size_t> touched;
  touched.reserve(64);

  l_offsets_.assign(n_ + 1, 0);
  l_cols_.clear();

  const auto offsets = a.row_offsets();
  const auto cols = a.col_indices();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t r = perm_[i];
    touched.clear();
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      occupied[cols[k]] = 1;
      touched.push_back(cols[k]);
    }
    // Ascending scan over earlier pivots: each hit adds an L entry and unions
    // in that pivot's U row (O(n) per row; the symbolic pass runs once per
    // pattern, so the simplicity beats an elimination-tree traversal here).
    l_offsets_[i] = l_cols_.size();
    for (std::size_t k = 0; k < i; ++k) {
      if (!occupied[k]) continue;
      l_cols_.push_back(k);
      for (std::size_t j = 1; j < u_pattern[k].size(); ++j) {
        const std::size_t c = u_pattern[k][j];
        if (!occupied[c]) {
          occupied[c] = 1;
          touched.push_back(c);
        }
      }
    }
    // U row i: surviving columns >= i, diagonal first. The diagonal is forced
    // into the pattern — if a matrix leaves it numerically zero the pivot
    // check in refactorize() rejects it.
    auto& urow = u_pattern[i];
    urow.push_back(i);
    for (std::size_t c : touched) {
      if (c > i) urow.push_back(c);
    }
    std::sort(urow.begin() + 1, urow.end());
    urow.erase(std::unique(urow.begin() + 1, urow.end()), urow.end());
    for (std::size_t c : touched) occupied[c] = 0;
    occupied[i] = 0;
  }
  l_offsets_[n_] = l_cols_.size();

  u_offsets_.assign(n_ + 1, 0);
  u_cols_.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    u_offsets_[i] = u_cols_.size();
    u_cols_.insert(u_cols_.end(), u_pattern[i].begin(), u_pattern[i].end());
  }
  u_offsets_[n_] = u_cols_.size();

  l_values_.assign(l_cols_.size(), 0.0);
  u_values_.assign(u_cols_.size(), 0.0);
  u_diag_.assign(n_, 0.0);
  work_.assign(n_, 0.0);
}

bool SparseLu::refactorize(const CsrMatrix& a) {
  if (!factorized() || !pattern_matches(a)) return false;
  if (!analyzed_) {
    analyze(a);
    analyzed_ = true;
  }

  const auto offsets = a.row_offsets();
  const auto cols = a.col_indices();
  const auto vals = a.values();

  for (std::size_t i = 0; i < n_; ++i) {
    // Zero the dense scratch on this row's frozen pattern, then scatter A.
    for (std::size_t j = l_offsets_[i]; j < l_offsets_[i + 1]; ++j) work_[l_cols_[j]] = 0.0;
    for (std::size_t j = u_offsets_[i]; j < u_offsets_[i + 1]; ++j) work_[u_cols_[j]] = 0.0;
    const std::size_t r = perm_[i];
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) work_[cols[k]] += vals[k];

    // Left-looking elimination over the frozen L pattern (ascending columns).
    for (std::size_t j = l_offsets_[i]; j < l_offsets_[i + 1]; ++j) {
      const std::size_t k = l_cols_[j];
      const double factor = work_[k] / u_diag_[k];
      l_values_[j] = factor;
      if (factor == 0.0) continue;
      for (std::size_t m = u_offsets_[k] + 1; m < u_offsets_[k + 1]; ++m) {
        work_[u_cols_[m]] -= factor * u_values_[m];
      }
    }

    // Gather U row i and check the frozen pivot still carries the row.
    double row_max = 0.0;
    for (std::size_t j = u_offsets_[i]; j < u_offsets_[i + 1]; ++j) {
      const double v = work_[u_cols_[j]];
      u_values_[j] = v;
      row_max = std::max(row_max, std::fabs(v));
    }
    const double diag = u_values_[u_offsets_[i]];
    u_diag_[i] = diag;
    if (!(std::fabs(diag) >= kPivotTolerance) || std::fabs(diag) < kDegradeRatio * row_max) {
      return false;
    }
  }
  return true;
}

void SparseLu::solve(std::span<const double> b, std::span<double> x) const {
  OXMLC_CHECK(factorized(), "SparseLu::solve before factorize");
  OXMLC_CHECK(b.size() == n_ && x.size() == n_, "SparseLu::solve size mismatch");

  // Forward substitution: L y = P b (L has unit diagonal).
  for (std::size_t r = 0; r < n_; ++r) {
    double s = b[perm_[r]];
    for (std::size_t j = l_offsets_[r]; j < l_offsets_[r + 1]; ++j) {
      s -= l_values_[j] * x[l_cols_[j]];
    }
    x[r] = s;
  }
  // Back substitution: U x = y (U rows store the diagonal first).
  for (std::size_t ri = n_; ri-- > 0;) {
    double s = x[ri];
    for (std::size_t j = u_offsets_[ri] + 1; j < u_offsets_[ri + 1]; ++j) {
      s -= u_values_[j] * x[u_cols_[j]];
    }
    const double diag = u_diag_[ri];
    OXMLC_CHECK(diag != 0.0, "SparseLu: zero diagonal in back substitution");
    x[ri] = s / diag;
  }
}

// Out-of-line where BlockSchurLu is complete (unique_ptr member).
LinearSolver::LinearSolver() = default;
LinearSolver::~LinearSolver() = default;
LinearSolver::LinearSolver(LinearSolver&&) noexcept = default;
LinearSolver& LinearSolver::operator=(LinearSolver&&) noexcept = default;

void LinearSolver::set_partition(const BlockPartition& partition) {
  schur_ = std::make_unique<BlockSchurLu>(partition);
}

void LinearSolver::clear_partition() { schur_.reset(); }

bool LinearSolver::factorized() const {
  if (schur_) return schur_->factorized();
  return dense_active_ ? dense_.factorized() : sparse_.factorized();
}

void LinearSolver::factorize(const TripletMatrix& triplets) {
  last_refactorized_ = false;
  last_fallback_ = false;
  if (schur_) {
    // The hierarchical path is inherently cached per block; routing the
    // stateless entry point through it keeps factorize()/solve() consistent.
    schur_->factorize_cached(triplets);
    last_refactorized_ = schur_->last_refactorized();
    return;
  }
  dense_active_ = triplets.size() <= kDenseCutoff;
  if (dense_active_) {
    DenseMatrix a(triplets.size(), triplets.size());
    for (const Triplet& t : triplets.entries()) a.add(t.row, t.col, t.value);
    dense_.factorize(a);
  } else {
    sparse_.factorize(CsrMatrix::from_triplets(triplets));
  }
}

void LinearSolver::factorize_cached(const TripletMatrix& triplets) {
  last_refactorized_ = false;
  last_fallback_ = false;
  if (schur_) {
    schur_->factorize_cached(triplets);
    last_refactorized_ = schur_->last_refactorized();
    return;
  }
  dense_active_ = triplets.size() <= kDenseCutoff;
  if (dense_active_) {
    const std::size_t n = triplets.size();
    if (dense_buffer_.rows() != n || dense_buffer_.cols() != n) {
      dense_buffer_ = DenseMatrix(n, n);
    } else {
      dense_buffer_.set_zero();
    }
    for (const Triplet& t : triplets.entries()) dense_buffer_.add(t.row, t.col, t.value);
    dense_.factorize(dense_buffer_);
    return;
  }

  SparseLuMetrics& metrics = SparseLuMetrics::get();
  const CsrMatrix& a = assembly_.compress(triplets);
  if (assembly_.last_was_hit()) {
    metrics.pattern_hits.add();
  } else {
    metrics.pattern_misses.add();
  }

  if (assembly_.last_was_hit() && sparse_.factorized()) {
    if (sparse_.refactorize(a)) {
      last_refactorized_ = true;
      return;
    }
    metrics.fallbacks.add();
    last_fallback_ = true;
  }
  sparse_.factorize(a);
}

void LinearSolver::solve(std::span<const double> b, std::span<double> x) const {
  if (schur_) {
    schur_->solve(b, x);
  } else if (dense_active_) {
    dense_.solve(b, x);
  } else {
    sparse_.solve(b, x);
  }
}

void LinearSolver::solve_columns(std::span<const double> b, std::span<double> x,
                                 std::size_t m) const {
  if (!schur_ && dense_active_) {
    dense_.solve_columns(b, x, m);
    return;
  }
  const std::size_t n = schur_ ? schur_->size() : sparse_.size();
  OXMLC_CHECK(b.size() == n * m && x.size() == n * m,
              "LinearSolver::solve_columns size mismatch");
  for (std::size_t j = 0; j < m; ++j) solve(b.subspan(j * n, n), x.subspan(j * n, n));
}

}  // namespace oxmlc::num
