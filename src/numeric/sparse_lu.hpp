// Sparse LU factorization with partial pivoting (right-looking, row-based,
// Gilbert–Peierls-style scatter/gather updates) and a two-phase hot path:
// once a matrix has been factorized, its sparsity pattern, fill-in and pivot
// order are frozen by a symbolic analysis, and subsequent same-pattern
// matrices take a numeric-only refactorize() that skips pivot search and
// pattern discovery entirely.
//
// Circuit MNA matrices are extremely sparse and close to banded once the
// parasitic RC ladders dominate the node count; crucially their pattern is
// *fixed* by the topology, so every Newton iteration of every timestep
// re-factorizes the same structure with new values — the exact workload the
// symbolic/numeric split accelerates.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "numeric/dense_matrix.hpp"
#include "numeric/sparse_matrix.hpp"

namespace oxmlc::num {

// Hierarchical bordered-block solver (schur_lu.hpp); LinearSolver routes to it
// when a partition is installed via set_partition().
class BlockSchurLu;
struct BlockPartition;

class SparseLu {
 public:
  // Full factorization of A: fresh partial pivoting, pattern discovery
  // (throws SingularMatrixError when a best pivot is below kPivotTolerance).
  // Freezes the pattern and pivot order for later refactorize() calls.
  void factorize(const CsrMatrix& a);

  // Numeric-only refactorization: reuses the pivot order and the structural
  // fill pattern frozen by the last successful factorize(). Returns false —
  // leaving the stored factors invalid until the caller runs a full
  // factorize() — when
  //   (a) A's sparsity pattern differs from the frozen one, or
  //   (b) a pivot degrades below kPivotTolerance absolutely or below
  //       kDegradeRatio (1e-8, sparse_lu.cpp) times the largest magnitude in
  //       its eliminated row (the frozen order would amplify roundoff past
  //       acceptable growth).
  // Never throws for numerical reasons: the fallback full factorize()
  // re-pivots and is the one to diagnose genuine singularity.
  bool refactorize(const CsrMatrix& a);

  // Solves A x = b with the stored factors.
  void solve(std::span<const double> b, std::span<double> x) const;

  bool factorized() const { return n_ > 0; }
  std::size_t size() const { return n_; }
  std::size_t fill_nnz() const { return l_cols_.size() + u_cols_.size(); }

 private:
  // Symbolic phase: structural (no-cancellation) elimination of A's pattern
  // under the frozen row permutation; rebuilds the L/U patterns as a superset
  // of any numeric factorization with those pivots, so refactorize() can
  // never overflow the frozen fill.
  void analyze(const CsrMatrix& a);
  bool pattern_matches(const CsrMatrix& a) const;

  std::size_t n_ = 0;
  std::vector<std::size_t> perm_;  // row permutation: solve uses b[perm_[r]]

  // Factors in flat CSR-style storage. L is strictly lower triangular with
  // unit diagonal (not stored); U rows are sorted ascending and start at the
  // diagonal entry.
  std::vector<std::size_t> l_offsets_, l_cols_;
  std::vector<double> l_values_;
  std::vector<std::size_t> u_offsets_, u_cols_;
  std::vector<double> u_values_;
  std::vector<double> u_diag_;  // U(i, i), duplicated for O(1) access

  // Frozen input pattern (keyed against refactorize() arguments) and the
  // symbolic-analysis state.
  bool analyzed_ = false;
  std::vector<std::size_t> a_offsets_, a_cols_;

  // Persistent elimination scratch (avoids per-call allocation).
  std::vector<double> work_;
};

// Facade selecting the dense or sparse factorization by system size. The MNA
// assembler talks only to this interface.
class LinearSolver {
 public:
  // Systems at or below this size use dense LU (faster for tiny matrices).
  static constexpr std::size_t kDenseCutoff = 96;

  LinearSolver();
  ~LinearSolver();
  LinearSolver(LinearSolver&&) noexcept;
  LinearSolver& operator=(LinearSolver&&) noexcept;

  // Installs a bordered-block partition: factorize()/factorize_cached()/solve()
  // route through a BlockSchurLu over it instead of the monolithic paths. The
  // partition size must match every subsequent system. clear_partition()
  // returns to monolithic solves.
  void set_partition(const BlockPartition& partition);
  void clear_partition();
  bool partitioned() const { return schur_ != nullptr; }

  // Stateless path: fresh CSR build + fully pivoted factorization.
  void factorize(const TripletMatrix& triplets);

  // Hot path for repeated same-pattern factorizations (Newton iterations,
  // timestepping): pattern-cached CSR assembly feeding SparseLu::refactorize,
  // with automatic fallback to a full factorize() on a pattern change or
  // pivot degradation. Results are identical to factorize() up to the
  // row-ordering of the elimination (same solutions to machine precision on
  // the refactorize path, bit-identical on the fallback path).
  void factorize_cached(const TripletMatrix& triplets);

  void solve(std::span<const double> b, std::span<double> x) const;

  // Solves A X = B for m right-hand sides stored column-major (column j at
  // j * n), each column bit-identical to solve() on it: one interleaved
  // DenseLu::solve_columns on the dense path, one solve() per column on the
  // sparse and partitioned paths.
  void solve_columns(std::span<const double> b, std::span<double> x, std::size_t m) const;

  bool factorized() const;

  // True when the last factorize_cached() took the numeric-only refactorize
  // path (callers use this to count newton.refactorizations).
  bool last_refactorized() const { return last_refactorized_; }

  // True when the last factorize_cached() attempted a numeric-only
  // refactorize but had to fall back to a full factorize (pattern mismatch or
  // pivot degradation). BlockSchurLu reads this to count per-block fallbacks.
  bool last_fallback() const { return last_fallback_; }

 private:
  bool dense_active_ = true;
  DenseLu dense_;
  SparseLu sparse_;
  DenseMatrix dense_buffer_;  // reused dense assembly target
  CsrWorkspace assembly_;     // pattern-cached triplet→CSR compression
  std::unique_ptr<BlockSchurLu> schur_;
  bool last_refactorized_ = false;
  bool last_fallback_ = false;
};

}  // namespace oxmlc::num
