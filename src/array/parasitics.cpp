#include "array/parasitics.hpp"

#include <algorithm>

#include "devices/passive.hpp"
#include "spice/device.hpp"

namespace oxmlc::array {

std::vector<int> build_rc_line(spice::Circuit& circuit, const std::string& prefix,
                               int from, const LineParasitics& parasitics) {
  if (parasitics.segments == 0 || parasitics.total_resistance <= 0.0) {
    if (parasitics.total_capacitance > 0.0) {
      circuit.add<dev::Capacitor>(prefix + "_clump", from, spice::kGround,
                                  parasitics.total_capacitance);
    }
    return std::vector<int>(std::max<std::size_t>(parasitics.segments, 1), from);
  }

  const auto n = parasitics.segments;
  const double r_seg = parasitics.total_resistance / static_cast<double>(n);
  const double c_seg = parasitics.total_capacitance / static_cast<double>(n);
  std::vector<int> ends;
  ends.reserve(n);
  int previous = from;
  for (std::size_t k = 0; k < n; ++k) {
    const std::string node_name =
        (k + 1 == n) ? prefix + "_end" : prefix + "_" + std::to_string(k);
    const int next = circuit.node(node_name);
    circuit.add<dev::Resistor>(prefix + "_r" + std::to_string(k), previous, next, r_seg);
    if (c_seg > 0.0) {
      circuit.add<dev::Capacitor>(prefix + "_c" + std::to_string(k), next, spice::kGround,
                                  c_seg);
    }
    ends.push_back(next);
    previous = next;
  }
  return ends;
}

}  // namespace oxmlc::array
