// Sparse matrix assembly for MNA.
//
// Devices stamp (row, col, value) triplets into a `TripletMatrix`; the solver
// coalesces duplicates into CSR once per Newton iteration. A key property for
// circuit simulation: the sparsity *pattern* is fixed by the topology, so after
// the first assembly the triplet buffer is reused and only values change.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numeric/dense_matrix.hpp"

namespace oxmlc::num {

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class TripletMatrix {
 public:
  explicit TripletMatrix(std::size_t n = 0) : n_(n) {}

  void resize(std::size_t n) { n_ = n; }
  std::size_t size() const { return n_; }

  void clear() { entries_.clear(); }
  void reserve(std::size_t nnz) { entries_.reserve(nnz); }

  // Accumulative stamp: duplicates are summed at compression time.
  void add(std::size_t row, std::size_t col, double value);

  std::span<const Triplet> entries() const { return entries_; }

 private:
  std::size_t n_ = 0;
  std::vector<Triplet> entries_;
};

// Compressed sparse row with sorted, coalesced columns.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  // Builds structure + values from triplets (duplicates summed).
  static CsrMatrix from_triplets(const TripletMatrix& triplets);

  std::size_t size() const { return n_; }
  std::size_t nnz() const { return values_.size(); }

  std::span<const std::size_t> row_offsets() const { return row_offsets_; }
  std::span<const std::size_t> col_indices() const { return col_indices_; }
  std::span<const double> values() const { return values_; }

  // Mutable view of the value array for pattern-reusing assembly (the
  // structure — row offsets and column indices — stays frozen).
  std::span<double> values_mut() { return values_; }

  // Index into values() of entry (row, col), or npos when absent from the
  // pattern.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t value_index(std::size_t row, std::size_t col) const;

  // y = A x
  void multiply(std::span<const double> x, std::span<double> y) const;

  DenseMatrix to_dense() const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_offsets_;
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

// Pattern-cached triplet→CSR compression.
//
// Circuit Jacobians are re-stamped every Newton iteration with an identical
// sequence of (row, col) contributions — only the values move. After the
// first compression this workspace records that stamp sequence and the CSR
// value slot each entry lands in; while the sequence repeats, compress() is a
// positional O(nnz) scatter with no sort and no allocation. Any deviation
// (topology change, analysis-mode switch, value-dependent stamp skipping)
// falls back to a full sort+coalesce rebuild and re-records the map, so
// results are always identical to CsrMatrix::from_triplets.
class CsrWorkspace {
 public:
  // Compresses `triplets`, reusing the cached pattern when possible. The
  // returned reference stays valid until the next compress() call.
  const CsrMatrix& compress(const TripletMatrix& triplets);

  // True when the previous compress() reused the cached pattern.
  bool last_was_hit() const { return last_was_hit_; }

 private:
  struct Slot {
    std::size_t row;
    std::size_t col;
    std::size_t value_index;  // into csr_.values()
  };

  CsrMatrix csr_;
  std::vector<Slot> slots_;  // recorded stamp sequence, in triplet order
  bool valid_ = false;
  bool last_was_hit_ = false;
};

}  // namespace oxmlc::num
