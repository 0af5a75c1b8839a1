// Hierarchical bordered-block-diagonal LU: per-block factorization plus a
// dense Schur complement on the coupling border.
//
// 1T-1R array Jacobians are naturally bordered-block-diagonal — each column's
// cell stack (access transistor, OxRAM cell, BL ladder, termination sense
// chain) couples to the rest of the array only through a handful of shared
// unknowns (SL/WL ladder taps, vdd, driver branch currents). Partitioning the
// unknowns into K interior blocks plus that small border B turns one
// O((n·m)³)-ish monolithic factorization into K independent block
// factorizations plus a dense solve on |B| unknowns:
//
//     [ A_1          B_1 ] [x_1]   [b_1]
//     [      ...     ... ] [...] = [...]        S = D - Σ_k C_k A_k⁻¹ B_k
//     [          A_K B_K ] [x_K]   [b_K]        S y = b_B - Σ_k C_k A_k⁻¹ b_k
//     [ C_1  ... C_K  D  ] [ y ]   [b_B]        x_k = A_k⁻¹ (b_k - B_k y)
//
// Each block reuses the pattern-cached LinearSolver (dense below the cutoff,
// SparseLu numeric-only refactorize above it), so per-Newton-iteration cost is
// K cheap refactorizes plus a |B|³ dense factor. B_k touches only a few border
// columns per block (its column supports J_k), so forming C_k A_k⁻¹ B_k takes
// one |J_k|-column LinearSolver::solve_columns per block, not |B| solves.
//
// DETERMINISM CONTRACT: the solver is serial. The per-block factor, forward
// solve and back substitution run in ascending block order and write only
// into per-block storage; every floating-point reduction that crosses blocks
// (Schur assembly, border RHS) also runs in ascending block order. A solve is
// therefore a pure function of its inputs, and callers that run independent
// solves concurrently (the memsys MNA tier runs one bank transient per pool
// worker) get bit-identical results at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numeric/dense_matrix.hpp"
#include "numeric/sparse_lu.hpp"
#include "numeric/sparse_matrix.hpp"

namespace oxmlc::num {

// Block membership of every unknown. Entry i is either kBorder or the interior
// block id in [0, blocks). A valid partition has no matrix entry coupling two
// distinct interior blocks — all cross-block coupling must route through the
// border (BlockSchurLu::factorize_cached throws otherwise).
struct BlockPartition {
  static constexpr std::int32_t kBorder = -1;

  std::vector<std::int32_t> block_of;
  std::size_t blocks = 0;

  std::size_t size() const { return block_of.size(); }
  bool empty() const { return block_of.empty(); }

  // Throws InvalidArgumentError on out-of-range block ids.
  void validate() const;
};

// The blocks and the dense border factor share the one pivot floor,
// kPivotTolerance (linear_error.hpp).
class BlockSchurLu {
 public:
  explicit BlockSchurLu(BlockPartition partition);

  const BlockPartition& partition() const { return partition_; }
  std::size_t size() const { return partition_.block_of.size(); }
  std::size_t border_size() const { return border_.size(); }

  // Splits the triplets into per-block A_k/B_k/C_k plus the border D,
  // factors every block (pattern-cached: numeric-only refactorize on
  // repeats), forms the dense Schur complement and factors it. Throws
  // InvalidArgumentError when an entry couples two distinct interior blocks,
  // SingularMatrixError (with the *global* unknown index and the block id in
  // the message) when a block or the border is singular.
  void factorize_cached(const TripletMatrix& triplets);

  // Solves A x = b with the stored factors.
  void solve(std::span<const double> b, std::span<double> x);

  bool factorized() const { return factorized_; }

  // True when the last factorize_cached() reused every block's frozen
  // pattern (numeric-only refactorize or dense rebuild) with no fallback —
  // the hierarchical analogue of LinearSolver::last_refactorized().
  bool last_refactorized() const { return last_refactorized_; }

 private:
  struct Block {
    std::vector<std::size_t> globals;      // global unknown of local i, ascending
    TripletMatrix a;                       // interior coupling, local indices
    std::vector<Triplet> b;                // (local row, border-local col, value)
    std::vector<Triplet> c;                // (border-local row, local col, value)
    std::vector<std::size_t> border_cols;  // sorted unique border cols in b
    LinearSolver solver;
    std::vector<double> z;    // A_k⁻¹ B_k on border_cols, column-major n×|J_k|
    // Per-block scratch (never shared across blocks): B_k on border_cols
    // while factoring, b_k while solving.
    std::vector<double> rhs;
    std::vector<double> sol;
    bool pattern_hit = false;
    bool fallback = false;
  };

  void build_structure();
  void split(const TripletMatrix& triplets);
  void factor_block(std::size_t k);

  BlockPartition partition_;

  std::vector<std::size_t> border_;  // global unknowns of border slots, ascending
  std::vector<std::size_t> local_;   // global -> block-local or border-local index
  std::vector<Block> blocks_;

  DenseMatrix schur_;  // D, then S = D - Σ C_k A_k⁻¹ B_k
  DenseLu schur_lu_;
  std::vector<double> border_rhs_;
  std::vector<double> border_y_;

  bool factorized_ = false;
  bool had_prior_factorize_ = false;
  bool last_refactorized_ = false;
};

}  // namespace oxmlc::num
