#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "numeric/dense_matrix.hpp"
#include "numeric/newton.hpp"
#include "numeric/schur_lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/sparse_matrix.hpp"
#include "numeric/vec.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace oxmlc::num {
namespace {

// ---------------------------------------------------------------------------
// vec helpers
// ---------------------------------------------------------------------------

TEST(Vec, DotAndNorms) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6.0);
  EXPECT_DOUBLE_EQ(norm2(a), std::sqrt(14.0));
}

TEST(Vec, AxpyAccumulates) {
  const std::vector<double> x = {1.0, 1.0};
  std::vector<double> y = {1.0, 2.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
}

TEST(Vec, WeightedRmsConvergenceSemantics) {
  const std::vector<double> delta = {1e-9, 1e-9};
  const std::vector<double> reference = {1.0, 1.0};
  // Tiny update relative to tolerance => << 1 (converged).
  EXPECT_LT(weighted_rms(delta, reference, 1e-6, 1e-9), 1.1);
  const std::vector<double> big = {1.0, 1.0};
  EXPECT_GT(weighted_rms(big, reference, 1e-6, 1e-9), 1.0);
}

// ---------------------------------------------------------------------------
// dense LU: each test runs the real (DenseLu) and the complex (ComplexLu)
// instantiation of the one template
// ---------------------------------------------------------------------------

// Calls `check` with a zero of each scalar type.
template <typename Check>
void for_each_scalar(Check check) {
  check(0.0);
  check(Complex{});
}

// `v` as a matrix or right-hand-side entry. The complex case turns each real
// system by one unit phase, which leaves its solution unchanged.
template <typename T>
T entry(double v) {
  if constexpr (std::is_same_v<T, Complex>) {
    return v * Complex(0.6, 0.8);
  } else {
    return v;
  }
}

// A standard normal draw; both parts drawn in the complex case.
template <typename T>
T draw(Rng& rng) {
  if constexpr (std::is_same_v<T, Complex>) {
    const double re = rng.normal(0, 1);
    return {re, rng.normal(0, 1)};
  } else {
    return rng.normal(0, 1);
  }
}

TEST(DenseLu, SolvesKnownSystem) {
  for_each_scalar([](auto zero) {
    using T = decltype(zero);
    BasicDenseMatrix<T> a(2, 2);
    a.at(0, 0) = entry<T>(2.0);
    a.at(0, 1) = entry<T>(1.0);
    a.at(1, 0) = entry<T>(1.0);
    a.at(1, 1) = entry<T>(3.0);
    BasicDenseLu<T> lu;
    lu.factorize(a);
    const std::vector<T> b = {entry<T>(5.0), entry<T>(10.0)};
    std::vector<T> x(2);
    lu.solve(b, x);
    EXPECT_NEAR(std::abs(x[0] - T(1.0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x[1] - T(3.0)), 0.0, 1e-12);
  });
}

TEST(DenseLu, RequiresPivoting) {
  // Zero on the diagonal: fails without partial pivoting.
  for_each_scalar([](auto zero) {
    using T = decltype(zero);
    BasicDenseMatrix<T> a(2, 2);
    a.at(0, 0) = entry<T>(0.0);
    a.at(0, 1) = entry<T>(1.0);
    a.at(1, 0) = entry<T>(1.0);
    a.at(1, 1) = entry<T>(1.0);
    BasicDenseLu<T> lu;
    lu.factorize(a);
    const std::vector<T> b = {entry<T>(2.0), entry<T>(3.0)};
    std::vector<T> x(2);
    lu.solve(b, x);
    EXPECT_NEAR(std::abs(x[0] - T(1.0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x[1] - T(2.0)), 0.0, 1e-12);
  });
}

TEST(DenseLu, SingularMatrixThrows) {
  for_each_scalar([](auto zero) {
    using T = decltype(zero);
    BasicDenseMatrix<T> a(2, 2);
    a.at(0, 0) = entry<T>(1.0);
    a.at(0, 1) = entry<T>(2.0);
    a.at(1, 0) = entry<T>(2.0);
    a.at(1, 1) = entry<T>(4.0);
    BasicDenseLu<T> lu;
    EXPECT_THROW(lu.factorize(a), ConvergenceError);
  });
}

TEST(DenseLu, RandomSystemsRoundTrip) {
  for_each_scalar([](auto zero) {
    using T = decltype(zero);
    Rng rng(101);
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = 1 + rng.uniform_index(30);
      BasicDenseMatrix<T> a(n, n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) a.at(r, c) = draw<T>(rng);
        a.at(r, r) += 3.0;  // diagonally dominant => well conditioned
      }
      std::vector<T> x_true(n), b(n);
      for (auto& v : x_true) v = draw<T>(rng);
      a.multiply(x_true, b);

      BasicDenseLu<T> lu;
      lu.factorize(a);
      std::vector<T> x(n);
      lu.solve(b, x);
      for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-9);
    }
  });
}

// Solves m random right-hand sides at once with solve_columns and one at a
// time with solve; every column must carry the same bits.
template <typename T, typename Solver>
void expect_columns_match_solve(const Solver& solver, std::size_t n, std::size_t m,
                                Rng& rng) {
  std::vector<T> b(n * m), x(n * m), column(n);
  for (auto& v : b) v = draw<T>(rng);
  solver.solve_columns(b, x, m);
  for (std::size_t j = 0; j < m; ++j) {
    solver.solve(std::span<const T>(b).subspan(j * n, n), column);
    EXPECT_EQ(std::memcmp(column.data(), x.data() + j * n, n * sizeof(T)), 0)
        << "n=" << n << " m=" << m << " column " << j;
  }
}

// The dense kernel interleaves the columns' substitutions without changing
// any column's arithmetic; the sparse and partitioned paths solve column by
// column.
TEST(DenseLu, SolveColumnsMatchesSolveBitwise) {
  for_each_scalar([](auto zero) {
    using T = decltype(zero);
    Rng rng(2028);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{13}, std::size_t{40}}) {
      BasicDenseMatrix<T> a(n, n);
      for (std::size_t r = 0; r < n; ++r) {
        double off_diagonal = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
          a.at(r, c) = draw<T>(rng);
          if (c != r) off_diagonal += std::abs(a.at(r, c));
        }
        a.at(r, r) += off_diagonal + 1.0;  // strictly diagonally dominant
      }
      BasicDenseLu<T> lu;
      lu.factorize(a);
      for (std::size_t m = 1; m <= 6; ++m) expect_columns_match_solve<T>(lu, n, m, rng);
    }
  });

  Rng rng(2029);
  const auto chain = [&](std::size_t n) {
    TripletMatrix t(n);
    for (std::size_t i = 0; i < n; ++i) {
      t.add(i, i, 4.0 + rng.uniform());
      if (i > 0) t.add(i, i - 1, rng.normal(0, 0.3));
      if (i + 1 < n) t.add(i, i + 1, rng.normal(0, 0.3));
    }
    return t;
  };

  const std::size_t sparse_n = 150;  // > LinearSolver::kDenseCutoff
  LinearSolver sparse;
  sparse.factorize_cached(chain(sparse_n));
  for (std::size_t m = 1; m <= 6; ++m) {
    expect_columns_match_solve<double>(sparse, sparse_n, m, rng);
  }

  // The same chain cut by border unknown 5 into blocks {0..4} and {6..10}.
  const std::size_t bordered_n = 11;
  BlockPartition partition;
  partition.blocks = 2;
  for (std::size_t i = 0; i < bordered_n; ++i) {
    partition.block_of.push_back(i < 5 ? 0 : i == 5 ? BlockPartition::kBorder : 1);
  }
  LinearSolver partitioned;
  partitioned.set_partition(partition);
  partitioned.factorize_cached(chain(bordered_n));
  for (std::size_t m = 1; m <= 6; ++m) {
    expect_columns_match_solve<double>(partitioned, bordered_n, m, rng);
  }
}

// ---------------------------------------------------------------------------
// sparse matrix + LU
// ---------------------------------------------------------------------------

TEST(SparseMatrix, CoalescesDuplicates) {
  TripletMatrix t(3);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.0);
  t.add(1, 2, 5.0);
  const CsrMatrix m = CsrMatrix::from_triplets(t);
  EXPECT_EQ(m.nnz(), 2u);
  const DenseMatrix d = m.to_dense();
  EXPECT_DOUBLE_EQ(d.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(d.at(1, 2), 5.0);
}

TEST(SparseMatrix, DropsExplicitZeros) {
  TripletMatrix t(2);
  t.add(0, 0, 0.0);
  t.add(1, 1, 1.0);
  EXPECT_EQ(CsrMatrix::from_triplets(t).nnz(), 1u);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  Rng rng(7);
  TripletMatrix t(10);
  for (int k = 0; k < 40; ++k) {
    t.add(rng.uniform_index(10), rng.uniform_index(10), rng.normal(0, 1));
  }
  const CsrMatrix m = CsrMatrix::from_triplets(t);
  const DenseMatrix d = m.to_dense();
  std::vector<double> x(10), y_sparse(10), y_dense(10);
  for (auto& v : x) v = rng.normal(0, 1);
  m.multiply(x, y_sparse);
  d.multiply(x, y_dense);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-12);
}

TEST(SparseLu, MatchesDenseOnRandomSystems) {
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 5 + rng.uniform_index(60);
    TripletMatrix t(n);
    for (std::size_t r = 0; r < n; ++r) {
      t.add(r, r, 4.0 + rng.uniform());
      for (int k = 0; k < 3; ++k) {
        t.add(r, rng.uniform_index(n), rng.normal(0, 0.5));
      }
    }
    const CsrMatrix m = CsrMatrix::from_triplets(t);

    std::vector<double> x_true(n), b(n);
    for (auto& v : x_true) v = rng.normal(0, 1);
    m.multiply(x_true, b);

    SparseLu lu;
    lu.factorize(m);
    std::vector<double> x(n);
    lu.solve(b, x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(SparseLu, TridiagonalLadderExact) {
  // The RC-ladder pattern the parasitic models produce.
  const std::size_t n = 200;
  TripletMatrix t(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0);
    if (i > 0) t.add(i, i - 1, -1.0);
    if (i + 1 < n) t.add(i, i + 1, -1.0);
  }
  const CsrMatrix m = CsrMatrix::from_triplets(t);
  std::vector<double> b(n, 0.0);
  b[0] = 1.0;  // unit injection at one end
  SparseLu lu;
  lu.factorize(m);
  std::vector<double> x(n);
  lu.solve(b, x);
  // Closed form: x_i = (n - i) / (n + 1).
  for (std::size_t i = 0; i < n; i += 37) {
    EXPECT_NEAR(x[i], static_cast<double>(n - i) / (n + 1), 1e-9);
  }
  // Fill stays linear in n for a tridiagonal system.
  EXPECT_LT(lu.fill_nnz(), 4 * n);
}

TEST(LinearSolver, SwitchesBetweenBackends) {
  for (std::size_t n : {std::size_t{8}, std::size_t{200}}) {
    TripletMatrix t(n);
    for (std::size_t i = 0; i < n; ++i) t.add(i, i, 2.0 + static_cast<double>(i % 3));
    LinearSolver solver;
    solver.factorize(t);
    std::vector<double> b(n, 1.0), x(n);
    solver.solve(b, x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], 1.0 / (2.0 + static_cast<double>(i % 3)), 1e-12);
    }
  }
}

TEST(CsrWorkspace, HitReusesPatternAndMatchesRebuild) {
  TripletMatrix t(4);
  const auto stamp = [&](double scale) {
    t.clear();
    t.add(0, 0, 4.0 * scale);
    t.add(0, 2, 1.0 * scale);
    t.add(1, 1, 3.0 * scale);
    t.add(2, 0, -1.0 * scale);
    t.add(2, 2, 5.0 * scale);
    t.add(3, 3, 2.0 * scale);
    t.add(0, 0, 0.5 * scale);  // duplicate: coalesced by compression
  };
  CsrWorkspace workspace;
  stamp(1.0);
  workspace.compress(t);
  EXPECT_FALSE(workspace.last_was_hit());

  stamp(-2.5);
  const CsrMatrix& cached = workspace.compress(t);
  EXPECT_TRUE(workspace.last_was_hit());
  const CsrMatrix rebuilt = CsrMatrix::from_triplets(t);
  ASSERT_EQ(cached.nnz(), rebuilt.nnz());
  for (std::size_t k = 0; k < cached.nnz(); ++k) {
    EXPECT_EQ(cached.col_indices()[k], rebuilt.col_indices()[k]);
    EXPECT_DOUBLE_EQ(cached.values()[k], rebuilt.values()[k]);
  }
}

TEST(CsrWorkspace, PatternChangeFallsBackToRebuild) {
  TripletMatrix t(3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 2.0);
  t.add(2, 2, 3.0);
  CsrWorkspace workspace;
  workspace.compress(t);

  t.clear();
  t.add(0, 0, 1.0);
  t.add(1, 0, 4.0);  // new position: stamp sequence deviates
  t.add(1, 1, 2.0);
  t.add(2, 2, 3.0);
  const CsrMatrix& csr = workspace.compress(t);
  EXPECT_FALSE(workspace.last_was_hit());
  EXPECT_EQ(csr.nnz(), 4u);
  EXPECT_DOUBLE_EQ(csr.to_dense().at(1, 0), 4.0);
}

// Refactorize must reproduce the full factorization's solutions on every
// same-pattern matrix (the transient hot path: one pattern, thousands of
// value sets).
TEST(SparseLu, RefactorizeMatchesFactorizeOnRandomSamePatternSystems) {
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 20 + rng.uniform_index(100);
    // Fixed pattern: tridiagonal plus a few random off-diagonals.
    std::vector<std::pair<std::size_t, std::size_t>> pattern;
    for (std::size_t i = 0; i < n; ++i) {
      pattern.emplace_back(i, i);
      if (i > 0) pattern.emplace_back(i, i - 1);
      if (i + 1 < n) pattern.emplace_back(i, i + 1);
    }
    for (int k = 0; k < 10; ++k) {
      pattern.emplace_back(rng.uniform_index(n), rng.uniform_index(n));
    }
    const auto build = [&](Rng& values_rng) {
      TripletMatrix t(n);
      for (const auto& [r, c] : pattern) {
        t.add(r, c, r == c ? 6.0 + values_rng.uniform() : values_rng.normal(0, 0.5));
      }
      return CsrMatrix::from_triplets(t);
    };

    SparseLu lu;
    lu.factorize(build(rng));
    for (int rep = 0; rep < 3; ++rep) {
      const CsrMatrix a = build(rng);
      ASSERT_TRUE(lu.refactorize(a)) << "n=" << n << " rep=" << rep;

      std::vector<double> x_true(n), b(n), x(n);
      for (auto& v : x_true) v = rng.normal(0, 1);
      a.multiply(x_true, b);
      lu.solve(b, x);

      SparseLu fresh;
      fresh.factorize(a);
      std::vector<double> x_fresh(n);
      fresh.solve(b, x_fresh);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i], x_true[i], 1e-7);
        EXPECT_NEAR(x[i], x_fresh[i], 1e-8);
      }
    }
  }
}

TEST(SparseLu, RefactorizeRejectsPatternChange) {
  TripletMatrix t(3);
  t.add(0, 0, 2.0);
  t.add(1, 1, 2.0);
  t.add(2, 2, 2.0);
  SparseLu lu;
  lu.factorize(CsrMatrix::from_triplets(t));

  t.add(0, 2, 1.0);  // extra entry: different pattern
  EXPECT_FALSE(lu.refactorize(CsrMatrix::from_triplets(t)));
}

TEST(SparseLu, RefactorizeRejectsDegradedPivotThenFullFactorizeRecovers) {
  // Factorize with a diagonally dominant value set: the frozen pivot order is
  // the identity.
  TripletMatrix t(2);
  t.add(0, 0, 4.0);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 4.0);
  SparseLu lu;
  lu.factorize(CsrMatrix::from_triplets(t));

  // Same pattern, but the (0,0) pivot collapses: under the frozen order the
  // first pivot is 1e-30 while its row holds a 1.0 — refactorize must refuse
  // rather than divide by it.
  TripletMatrix degenerate(2);
  degenerate.add(0, 0, 1e-30);
  degenerate.add(0, 1, 1.0);
  degenerate.add(1, 0, 1.0);
  degenerate.add(1, 1, 1e-30);
  const CsrMatrix a = CsrMatrix::from_triplets(degenerate);
  EXPECT_FALSE(lu.refactorize(a));

  // The fallback the callers take: a full factorization re-pivots and solves
  // the (perfectly well-conditioned) permuted system.
  lu.factorize(a);
  const std::vector<double> b = {1.0, 2.0};
  std::vector<double> x(2);
  lu.solve(b, x);
  EXPECT_NEAR(x[0], 2.0, 1e-9);  // a is (numerically) the exchange matrix
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(LinearSolver, FactorizeCachedMatchesFactorizeOnBothBackends) {
  Rng rng(91);
  for (std::size_t n : {std::size_t{8}, std::size_t{200}}) {  // dense | sparse
    LinearSolver cached;
    for (int rep = 0; rep < 3; ++rep) {
      TripletMatrix t(n);
      for (std::size_t i = 0; i < n; ++i) {
        t.add(i, i, 4.0 + rng.uniform());
        if (i > 0) t.add(i, i - 1, rng.normal(0, 0.3));
        if (i + 1 < n) t.add(i, i + 1, rng.normal(0, 0.3));
      }
      cached.factorize_cached(t);
      LinearSolver fresh;
      fresh.factorize(t);

      std::vector<double> b(n), x_cached(n), x_fresh(n);
      for (auto& v : b) v = rng.normal(0, 1);
      cached.solve(b, x_cached);
      fresh.solve(b, x_fresh);
      for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_cached[i], x_fresh[i], 1e-9);

      if (n > LinearSolver::kDenseCutoff && rep > 0) {
        EXPECT_TRUE(cached.last_refactorized()) << "n=" << n << " rep=" << rep;
      } else {
        EXPECT_FALSE(cached.last_refactorized()) << "n=" << n << " rep=" << rep;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Newton
// ---------------------------------------------------------------------------

// F(x) = [x0^2 + x1 - 3, x0 - x1 + 1]; root at (1, 2).
class QuadraticSystem final : public NonlinearSystem {
 public:
  std::size_t dimension() const override { return 2; }
  void assemble(std::span<const double> x, TripletMatrix* jacobian,
                std::span<double> residual) override {
    residual[0] = x[0] * x[0] + x[1] - 3.0;
    residual[1] = x[0] - x[1] + 1.0;
    if (jacobian == nullptr) return;
    jacobian->add(0, 0, 2.0 * x[0]);
    jacobian->add(0, 1, 1.0);
    jacobian->add(1, 0, 1.0);
    jacobian->add(1, 1, -1.0);
  }
};

TEST(Newton, ConvergesQuadratically) {
  QuadraticSystem system;
  std::vector<double> x = {3.0, 0.0};
  NewtonWorkspace workspace;
  const NewtonResult result = solve_newton(system, x, {}, workspace);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-8);
  EXPECT_NEAR(x[1], 2.0, 1e-8);
  EXPECT_LT(result.iterations, 15u);
}

// Stiff exponential (diode-like): F(x) = 1e-12 * (exp(x / 0.025) - 1) - 1e-3.
class ExponentialSystem final : public NonlinearSystem {
 public:
  std::size_t dimension() const override { return 1; }
  void assemble(std::span<const double> x, TripletMatrix* jacobian,
                std::span<double> residual) override {
    const double e = std::exp(std::min(x[0], 2.0) / 0.025);
    residual[0] = 1e-12 * (e - 1.0) - 1e-3;
    if (jacobian != nullptr) jacobian->add(0, 0, 1e-12 * e / 0.025);
  }
  double max_step(std::size_t) const override { return 0.1; }  // junction limiting
};

TEST(Newton, HandlesStiffExponentialWithStepLimiting) {
  ExponentialSystem system;
  std::vector<double> x = {0.0};
  NewtonOptions options;
  options.max_iterations = 400;
  NewtonWorkspace workspace;
  const NewtonResult result = solve_newton(system, x, options, workspace);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 0.025 * std::log(1e9), 1e-6);
}

TEST(Newton, ReportsNonConvergence) {
  // F(x) = x^2 + 1 has no real root.
  class NoRoot final : public NonlinearSystem {
   public:
    std::size_t dimension() const override { return 1; }
    void assemble(std::span<const double> x, TripletMatrix* jacobian,
                  std::span<double> residual) override {
      residual[0] = x[0] * x[0] + 1.0;
      if (jacobian != nullptr) jacobian->add(0, 0, x[0] == 0.0 ? 1e-6 : 2.0 * x[0]);
    }
  };
  NoRoot system;
  std::vector<double> x = {2.0};
  NewtonOptions options;
  options.max_iterations = 30;
  NewtonWorkspace workspace;
  EXPECT_FALSE(solve_newton(system, x, options, workspace).converged);
}

// Weakly nonlinear resistive ladder above the dense cutoff, so Newton's
// linear solves go through the sparse backend: F_i = (3 + x_i^2) x_i -
// x_{i-1} - x_{i+1} - b_i.
class NonlinearLadder final : public NonlinearSystem {
 public:
  explicit NonlinearLadder(std::size_t n) : n_(n), b_(n, 1.0) {}
  std::size_t dimension() const override { return n_; }
  void assemble(std::span<const double> x, TripletMatrix* jacobian,
                std::span<double> residual) override {
    for (std::size_t i = 0; i < n_; ++i) {
      residual[i] = (3.0 + x[i] * x[i]) * x[i] - b_[i];
      if (i > 0) residual[i] -= x[i - 1];
      if (i + 1 < n_) residual[i] -= x[i + 1];
      if (jacobian == nullptr) continue;
      jacobian->add(i, i, 3.0 + 3.0 * x[i] * x[i]);
      if (i > 0) jacobian->add(i, i - 1, -1.0);
      if (i + 1 < n_) jacobian->add(i, i + 1, -1.0);
    }
  }

 private:
  std::size_t n_;
  std::vector<double> b_;
};

// A reused workspace must change nothing about the results — only the
// allocations and (on the sparse path) the factorization work.
TEST(Newton, WorkspaceReuseMatchesFreshSolves) {
  const std::size_t n = 150;  // > LinearSolver::kDenseCutoff
  NewtonWorkspace workspace;
  for (int rep = 0; rep < 3; ++rep) {
    NonlinearLadder system(n);
    std::vector<double> x_ws(n, 0.0), x_fresh(n, 0.0);
    NewtonWorkspace fresh_workspace;
    const NewtonResult with_ws = solve_newton(system, x_ws, {}, workspace);
    const NewtonResult fresh = solve_newton(system, x_fresh, {}, fresh_workspace);
    ASSERT_TRUE(with_ws.converged);
    ASSERT_TRUE(fresh.converged);
    EXPECT_EQ(with_ws.iterations, fresh.iterations);
    for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(x_ws[i], x_fresh[i]);
  }
}

// Iterations after the first factorization of a warm workspace must take the
// numeric-only refactorize path (this is the speedup the two-phase LU buys).
TEST(Newton, WarmWorkspaceRefactorizes) {
  const std::size_t n = 150;
  NonlinearLadder system(n);
  NewtonWorkspace workspace;
  std::vector<double> x(n, 0.0);

  const std::uint64_t refactorizations_before =
      obs::registry().counter("newton.refactorizations").value();
  const std::uint64_t hits_before =
      obs::registry().counter("sparse_lu.pattern_hits").value();
  ASSERT_TRUE(solve_newton(system, x, {}, workspace).converged);
  // Second solve on the warm workspace: every factorization reuses the frozen
  // pattern.
  std::vector<double> x2(n, 0.0);
  const NewtonResult second = solve_newton(system, x2, {}, workspace);
  ASSERT_TRUE(second.converged);

  EXPECT_GT(obs::registry().counter("newton.refactorizations").value(),
            refactorizations_before);
  EXPECT_GT(obs::registry().counter("sparse_lu.pattern_hits").value(), hits_before);
}

}  // namespace
}  // namespace oxmlc::num
