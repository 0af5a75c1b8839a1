#include "spice/circuit.hpp"

#include "util/error.hpp"

namespace oxmlc::spice {

namespace {
bool is_ground_name(const std::string& name) {
  return name == "0" || name == "gnd" || name == "GND";
}
const std::string kGroundName = "0";
}  // namespace

int Circuit::node(const std::string& name) {
  if (is_ground_name(name)) return kGround;
  const auto it = node_ids_.find(name);
  if (it != node_ids_.end()) return it->second;
  ensure_not_finalized();
  const int id = static_cast<int>(node_names_.size());
  node_ids_.emplace(name, id);
  node_names_.push_back(name);
  return id;
}

int Circuit::node_index(const std::string& name) const {
  if (is_ground_name(name)) return kGround;
  const auto it = node_ids_.find(name);
  OXMLC_CHECK(it != node_ids_.end(), "unknown node: " + name);
  return it->second;
}

void Circuit::finalize() {
  if (finalized_) return;
  std::size_t next_branch = node_names_.size();
  std::vector<int> indices;
  for (auto& device : devices_) {
    const std::size_t count = device->branch_count();
    indices.clear();
    for (std::size_t i = 0; i < count; ++i) {
      indices.push_back(static_cast<int>(next_branch++));
    }
    device->assign_branches(indices);
  }
  branch_total_ = next_branch - node_names_.size();
  finalized_ = true;
}

std::size_t Circuit::unknown_count() const {
  OXMLC_CHECK(finalized_, "circuit must be finalized before analysis");
  return node_names_.size() + branch_total_;
}

Device* Circuit::find_device(const std::string& name) {
  for (auto& device : devices_) {
    if (device->name() == name) return device.get();
  }
  return nullptr;
}

const std::string& Circuit::node_name(int idx) const {
  if (idx < 0) return kGroundName;
  OXMLC_CHECK(static_cast<std::size_t>(idx) < node_names_.size(), "node index out of range");
  return node_names_[static_cast<std::size_t>(idx)];
}

void Circuit::ensure_not_finalized() const {
  OXMLC_CHECK(!finalized_, "circuit is finalized; no further edits allowed");
}

}  // namespace oxmlc::spice
