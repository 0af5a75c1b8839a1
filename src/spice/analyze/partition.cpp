#include "spice/analyze/partition.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace oxmlc::spice::analyze {
namespace {

// Unknowns of one device (terminals + branch currents), ground dropped.
std::vector<std::size_t> device_unknowns(const Device& device) {
  std::vector<std::size_t> out;
  out.reserve(device.nodes().size() + device.branches().size());
  for (int n : device.nodes()) {
    if (n >= 0) out.push_back(static_cast<std::size_t>(n));
  }
  for (int b : device.branches()) {
    if (b >= 0) out.push_back(static_cast<std::size_t>(b));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

struct UnionFind {
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Smaller root wins: component representatives stay deterministic.
    if (b < a) std::swap(a, b);
    parent[b] = a;
  }
  std::vector<std::size_t> parent;
};

// Core: components of the device-clique graph restricted to non-border
// unknowns become blocks; branch-only components are folded into the border.
num::BlockPartition partition_from_border(const Circuit& circuit,
                                          const std::vector<char>& is_border) {
  const std::size_t n = circuit.unknown_count();
  const std::size_t node_count = circuit.node_count();

  UnionFind uf(n);
  for (const auto& device : circuit.devices()) {
    const std::vector<std::size_t> unknowns = device_unknowns(*device);
    std::size_t prev = n;  // sentinel
    for (std::size_t u : unknowns) {
      if (is_border[u]) continue;
      if (prev != n) uf.unite(prev, u);
      prev = u;
    }
  }

  // Branch-only components (no node unknown keeps a gmin-shunted diagonal)
  // go to the border; see the header comment.
  std::vector<char> root_has_node(n, 0);
  for (std::size_t i = 0; i < node_count && i < n; ++i) {
    if (!is_border[i]) root_has_node[uf.find(i)] = 1;
  }

  num::BlockPartition partition;
  partition.block_of.assign(n, num::BlockPartition::kBorder);
  std::vector<std::int32_t> block_of_root(n, -1);
  std::int32_t next_block = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_border[i]) continue;
    const std::size_t root = uf.find(i);
    if (!root_has_node[root]) continue;  // branch-only: stays border
    if (block_of_root[root] < 0) block_of_root[root] = next_block++;
    partition.block_of[i] = block_of_root[root];
  }
  partition.blocks = static_cast<std::size_t>(next_block);
  if (partition.blocks == 0) {
    // Everything ended up on the border; BlockSchurLu still needs >= 1 block.
    partition.blocks = 1;
  }
  return partition;
}

}  // namespace

num::BlockPartition derive_partition(const Circuit& circuit,
                                     std::span<const int> border_unknowns) {
  OXMLC_CHECK(circuit.finalized(), "derive_partition: circuit not finalized");
  const std::size_t n = circuit.unknown_count();
  std::vector<char> is_border(n, 0);
  for (int u : border_unknowns) {
    if (u < 0) continue;
    OXMLC_CHECK(static_cast<std::size_t>(u) < n,
                "derive_partition: border unknown out of range");
    is_border[static_cast<std::size_t>(u)] = 1;
  }
  return partition_from_border(circuit, is_border);
}

}  // namespace oxmlc::spice::analyze
