#include "numeric/schur_lu.hpp"

#include <algorithm>
#include <string>

#include "numeric/linear_error.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace oxmlc::num {
namespace {

struct SchurMetrics {
  obs::Counter& factorizations = obs::registry().counter("schur.factorizations");
  obs::Counter& solves = obs::registry().counter("schur.solves");
  obs::Counter& blocks_factored = obs::registry().counter("schur.blocks_factored");
  obs::Counter& block_refactorize_hits =
      obs::registry().counter("schur.block_refactorize_hits");
  obs::Counter& block_fallbacks =
      obs::registry().counter("sparse_lu.schur_block_refactorize_fallbacks");
  obs::Gauge& border_size = obs::registry().gauge("schur.border_size");
  obs::Gauge& blocks = obs::registry().gauge("schur.blocks");

  static SchurMetrics& get() {
    static SchurMetrics metrics;
    return metrics;
  }
};

}  // namespace

void BlockPartition::validate() const {
  for (std::size_t i = 0; i < block_of.size(); ++i) {
    const std::int32_t b = block_of[i];
    if (b == kBorder) continue;
    if (b < 0 || static_cast<std::size_t>(b) >= blocks) {
      throw InvalidArgumentError(
          "BlockPartition: unknown " + std::to_string(i) + " assigned to block " +
          std::to_string(b) + " outside [0, " + std::to_string(blocks) + ")");
    }
  }
}

BlockSchurLu::BlockSchurLu(BlockPartition partition)
    : partition_(std::move(partition)) {
  OXMLC_CHECK(partition_.blocks > 0, "BlockSchurLu: partition needs >= 1 block");
  partition_.validate();
  build_structure();
}

void BlockSchurLu::build_structure() {
  const std::size_t n = partition_.block_of.size();
  local_.assign(n, 0);
  border_.clear();
  blocks_.clear();
  blocks_.resize(partition_.blocks);

  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t b = partition_.block_of[i];
    if (b == BlockPartition::kBorder) {
      local_[i] = border_.size();
      border_.push_back(i);
    } else {
      Block& blk = blocks_[static_cast<std::size_t>(b)];
      local_[i] = blk.globals.size();
      blk.globals.push_back(i);
    }
  }
  for (Block& blk : blocks_) blk.a.resize(blk.globals.size());

  schur_ = DenseMatrix(border_.size(), border_.size());
  border_rhs_.assign(border_.size(), 0.0);
  border_y_.assign(border_.size(), 0.0);
}

void BlockSchurLu::split(const TripletMatrix& triplets) {
  for (Block& blk : blocks_) {
    blk.a.clear();
    blk.b.clear();
    blk.c.clear();
  }
  schur_.set_zero();

  const auto& bo = partition_.block_of;
  for (const Triplet& t : triplets.entries()) {
    const std::int32_t br = bo[t.row];
    const std::int32_t bc = bo[t.col];
    if (br == BlockPartition::kBorder && bc == BlockPartition::kBorder) {
      schur_.add(local_[t.row], local_[t.col], t.value);
    } else if (br == bc) {
      blocks_[static_cast<std::size_t>(br)].a.add(local_[t.row], local_[t.col],
                                                  t.value);
    } else if (bc == BlockPartition::kBorder) {
      blocks_[static_cast<std::size_t>(br)].b.push_back(
          {local_[t.row], local_[t.col], t.value});
    } else if (br == BlockPartition::kBorder) {
      blocks_[static_cast<std::size_t>(bc)].c.push_back(
          {local_[t.row], local_[t.col], t.value});
    } else {
      throw InvalidArgumentError(
          "BlockSchurLu: matrix entry (" + std::to_string(t.row) + ", " +
          std::to_string(t.col) + ") couples interior block " +
          std::to_string(br) + " to block " + std::to_string(bc) +
          "; cross-block coupling must go through the border — partition invalid");
    }
  }

  // Column supports J_k: the border columns each block actually touches.
  for (Block& blk : blocks_) {
    blk.border_cols.clear();
    for (const Triplet& t : blk.b) blk.border_cols.push_back(t.col);
    std::sort(blk.border_cols.begin(), blk.border_cols.end());
    blk.border_cols.erase(
        std::unique(blk.border_cols.begin(), blk.border_cols.end()),
        blk.border_cols.end());
  }
}

void BlockSchurLu::factor_block(std::size_t k) {
  Block& blk = blocks_[k];
  const std::size_t n = blk.globals.size();
  blk.pattern_hit = false;
  blk.fallback = false;
  if (n == 0) return;

  try {
    blk.solver.factorize_cached(blk.a);
  } catch (const SingularMatrixError& e) {
    const std::size_t global =
        e.column() < n ? blk.globals[e.column()] : blk.globals.front();
    throw SingularMatrixError(
        "BlockSchurLu: interior block " + std::to_string(k) +
            " singular at block-local column " + std::to_string(e.column()) +
            " (global unknown " + std::to_string(global) + "): " + e.what(),
        global);
  }
  // Dense blocks rebuild cheaply every call; only the sparse path
  // distinguishes refactorize hits, so count dense as a hit.
  blk.pattern_hit =
      blk.solver.last_refactorized() || n <= LinearSolver::kDenseCutoff;
  blk.fallback = blk.solver.last_fallback();

  // Z = A_k⁻¹ B_k restricted to the touched border columns: B_k gathered
  // once, in b order, into column-major n × |J_k|, then one multi-column
  // solve.
  const std::size_t m = blk.border_cols.size();
  blk.rhs.assign(m * n, 0.0);
  for (const Triplet& t : blk.b) {
    const auto j = static_cast<std::size_t>(
        std::lower_bound(blk.border_cols.begin(), blk.border_cols.end(), t.col) -
        blk.border_cols.begin());
    blk.rhs[j * n + t.row] += t.value;
  }
  blk.z.resize(m * n);
  blk.solver.solve_columns(blk.rhs, blk.z, m);
}

void BlockSchurLu::factorize_cached(const TripletMatrix& triplets) {
  OXMLC_CHECK(triplets.size() == partition_.block_of.size(),
              "BlockSchurLu: system size does not match the partition");
  SchurMetrics& metrics = SchurMetrics::get();

  split(triplets);

  // Per-block phase: each block writes only its own state.
  for (std::size_t k = 0; k < blocks_.size(); ++k) factor_block(k);

  // Cross-block phase, ascending block order: S = D - Σ C_k Z_k.
  for (const Block& blk : blocks_) {
    const std::size_t n = blk.globals.size();
    for (const Triplet& t : blk.c) {
      for (std::size_t j = 0; j < blk.border_cols.size(); ++j) {
        schur_.add(t.row, blk.border_cols[j], -t.value * blk.z[j * n + t.col]);
      }
    }
  }

  if (!border_.empty()) {
    try {
      schur_lu_.factorize(schur_);
    } catch (const SingularMatrixError& e) {
      const std::size_t global =
          e.column() < border_.size() ? border_[e.column()] : border_.front();
      throw SingularMatrixError(
          "BlockSchurLu: border Schur complement singular at border column " +
              std::to_string(e.column()) + " (global unknown " +
              std::to_string(global) + "): " + e.what(),
          global);
    }
  }

  std::size_t hits = 0;
  std::size_t fallbacks = 0;
  for (const Block& blk : blocks_) {
    if (blk.pattern_hit) ++hits;
    if (blk.fallback) ++fallbacks;
  }
  last_refactorized_ = had_prior_factorize_ && hits == blocks_.size() && fallbacks == 0;
  had_prior_factorize_ = true;
  factorized_ = true;

  metrics.factorizations.add();
  metrics.blocks_factored.add(blocks_.size());
  metrics.block_refactorize_hits.add(hits);
  if (fallbacks > 0) metrics.block_fallbacks.add(fallbacks);
  metrics.border_size.set(static_cast<double>(border_.size()));
  metrics.blocks.set(static_cast<double>(blocks_.size()));
}

void BlockSchurLu::solve(std::span<const double> b, std::span<double> x) {
  OXMLC_CHECK(factorized_, "BlockSchurLu::solve before factorize");
  OXMLC_CHECK(b.size() == size() && x.size() == size(),
              "BlockSchurLu::solve size mismatch");
  SchurMetrics& metrics = SchurMetrics::get();

  // Interior forward solves g_k = A_k⁻¹ b_k (per-block storage).
  for (Block& blk : blocks_) {
    const std::size_t n = blk.globals.size();
    if (n == 0) continue;
    blk.rhs.resize(n);
    blk.sol.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      blk.rhs[i] = b[blk.globals[i]];
    }
    blk.solver.solve(blk.rhs, blk.sol);
  }

  // Border RHS, ascending block order.
  for (std::size_t i = 0; i < border_.size(); ++i) border_rhs_[i] = b[border_[i]];
  for (const Block& blk : blocks_) {
    for (const Triplet& t : blk.c) {
      border_rhs_[t.row] -= t.value * blk.sol[t.col];
    }
  }
  if (!border_.empty()) {
    schur_lu_.solve(border_rhs_, border_y_);
  }

  // Interior back-substitution x_k = A_k⁻¹ (b_k - B_k y). Rather than a
  // second triangular solve, reuse Z: x_k = g_k - Σ_j y_j Z_k[:, j].
  for (Block& blk : blocks_) {
    const std::size_t n = blk.globals.size();
    if (n == 0) continue;
    for (std::size_t j = 0; j < blk.border_cols.size(); ++j) {
      const double yj = border_y_[blk.border_cols[j]];
      if (yj == 0.0) continue;
      const double* zcol = blk.z.data() + j * n;
      for (std::size_t i = 0; i < n; ++i) {
        blk.sol[i] -= yj * zcol[i];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      x[blk.globals[i]] = blk.sol[i];
    }
  }

  for (std::size_t i = 0; i < border_.size(); ++i) x[border_[i]] = border_y_[i];
  metrics.solves.add();
}

}  // namespace oxmlc::num
