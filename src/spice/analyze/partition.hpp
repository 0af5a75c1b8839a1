// Bordered-block partition derivation from the circuit's structural graph.
//
// The hierarchical solver (num::BlockSchurLu) needs every unknown labeled
// interior-block or border such that no Jacobian entry couples two distinct
// interior blocks. The coupling structure is over-approximated from the
// device list: every device may stamp any (row, col) pair among its own
// terminals and branch currents, so each device forms a clique over its
// unknowns. Removing a chosen border set from that clique graph leaves
// connected components — those are the interior blocks.
//
// derive_partition takes the border unknowns from the caller: an array
// builder knows its shared driver/supply/ladder nodes exactly.
//
// Components containing only branch-current unknowns are merged into the
// border: the MNA gmin shunt lands on node unknowns only, so a branch-only
// block (e.g. the branch current of a voltage source whose terminals are both
// border nodes) has a structurally singular diagonal block.
#pragma once

#include <span>

#include "numeric/schur_lu.hpp"
#include "spice/circuit.hpp"

namespace oxmlc::spice::analyze {

// Partition with the given unknowns (plus whatever branch-only components
// they strand) as the border. Ground / negative indices are ignored.
num::BlockPartition derive_partition(const Circuit& circuit,
                                     std::span<const int> border_unknowns);

}  // namespace oxmlc::spice::analyze
