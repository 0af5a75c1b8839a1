// Circuit container: named nodes, owned devices, unknown-vector layout.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spice/device.hpp"

namespace oxmlc::spice {

class Circuit {
 public:
  Circuit() = default;
  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;
  Circuit(Circuit&&) = default;
  Circuit& operator=(Circuit&&) = default;

  // Returns the unknown index for a named node, creating it on first use.
  // "0", "gnd" and "GND" map to kGround.
  int node(const std::string& name);

  // Looks up an existing node; throws InvalidArgumentError if absent.
  int node_index(const std::string& name) const;

  std::size_t node_count() const { return node_names_.size(); }

  // Constructs a device in place. Device constructors take the circuit-
  // resolved node indices, so the typical call site reads:
  //   auto& r = circuit.add<Resistor>("Rbl", c.node("bl"), c.node("0"), 10e3);
  template <typename DeviceT, typename... Args>
  DeviceT& add(Args&&... args) {
    ensure_not_finalized();
    auto device = std::make_unique<DeviceT>(std::forward<Args>(args)...);
    DeviceT& ref = *device;
    devices_.push_back(std::move(device));
    return ref;
  }

  // Assigns branch-current unknown indices. Must be called before analysis;
  // adding devices afterwards throws.
  void finalize();
  bool finalized() const { return finalized_; }

  // node voltages + branch currents
  std::size_t unknown_count() const;

  std::span<const std::unique_ptr<Device>> devices() const { return devices_; }
  std::span<std::unique_ptr<Device>> devices() { return devices_; }

  // Device lookup by name (nullptr if absent).
  Device* find_device(const std::string& name);

  // Name of the node with unknown index `idx` ("0" for ground).
  const std::string& node_name(int idx) const;

 private:
  void ensure_not_finalized() const;

  std::unordered_map<std::string, int> node_ids_;
  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::size_t branch_total_ = 0;
  bool finalized_ = false;
};

}  // namespace oxmlc::spice
