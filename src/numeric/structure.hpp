// Structural (symbolic) analysis of sparsity patterns.
//
// A matrix is structurally singular when no permutation of its rows puts a
// (symbolically) nonzero entry on every diagonal position — equivalently, when
// the bipartite row/column graph of its pattern has no perfect matching. Such
// a matrix is singular for *every* choice of entry values, so the failure is a
// topology bug (floating branch equation, empty row), not a numerical one.
// The circuit analyzer runs this check on the MNA pattern before any solve and
// names the unmatched unknowns instead of letting LU fail at pivot time.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/sparse_matrix.hpp"

namespace oxmlc::num {

struct StructuralRankResult {
  std::size_t rank = 0;                     // size of the maximum matching
  std::vector<std::size_t> unmatched_rows;  // rows with no diagonal assignment
};

// Maximum bipartite matching (Kuhn's augmenting paths) between rows and
// columns of the pattern. O(n * nnz) worst case — fine for circuit-sized
// systems, and only run once per circuit, not per solve.
StructuralRankResult structural_rank(const TripletMatrix& pattern);

}  // namespace oxmlc::num
