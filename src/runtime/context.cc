#include "runtime/context.h"

#include "common/macros.h"
#include "common/strings.h"
#include "runtime/machine.h"
#include "runtime/process.h"
#include "runtime/simulation.h"

namespace phoenix {

Context::Context(Process* process, uint64_t id)
    : process_(process), id_(id) {}

Component* Context::AddComponent(std::unique_ptr<Component> instance,
                                 const std::string& type_name,
                                 const std::string& name, ComponentKind kind,
                                 uint64_t component_id) {
  PHX_CHECK(slots_.count(component_id) == 0);
  PHX_CHECK(by_name_.count(name) == 0);

  Component* comp = instance.get();
  comp->id_ = component_id;
  comp->name_ = name;
  comp->type_name_ = type_name;
  comp->kind_ = kind;
  comp->context_ = this;

  ComponentSlot slot;
  slot.instance = std::move(instance);
  comp->RegisterMethods(slot.methods);
  comp->RegisterFields(slot.fields);

  slots_.emplace(component_id, std::move(slot));
  by_name_.emplace(name, component_id);
  member_ids_.push_back(component_id);
  if (member_ids_.size() == 1) parent_id_ = component_id;
  return comp;
}

uint64_t Context::NextSubordinateId() {
  PHX_CHECK(next_sub_index_ < kMaxSubordinates);
  return kSubordinateIdBase + id_ * kMaxSubordinates + next_sub_index_++;
}

Component* Context::parent() const {
  auto it = slots_.find(parent_id_);
  return it == slots_.end() ? nullptr : it->second.instance.get();
}

ComponentSlot* Context::parent_slot() { return FindSlotById(parent_id_); }

ComponentSlot* Context::FindSlot(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : FindSlotById(it->second);
}

ComponentSlot* Context::FindSlotById(uint64_t component_id) {
  auto it = slots_.find(component_id);
  return it == slots_.end() ? nullptr : &it->second;
}

ComponentKind Context::parent_kind() const {
  const Component* p = parent();
  return p == nullptr ? ComponentKind::kPersistent : p->kind();
}

void Context::ClearMembers() {
  slots_.clear();
  by_name_.clear();
  member_ids_.clear();
  parent_id_ = 0;
  next_sub_index_ = 1;
  parent_initialized_ = false;
  creation_self_contained_ = false;
  busy_ = false;
  replaying_ = false;
  replay_feed_ = nullptr;
}

std::vector<ComponentSnapshot> Context::SnapshotComponents() {
  std::vector<ComponentSnapshot> out;
  out.reserve(member_ids_.size());
  for (uint64_t member_id : member_ids_) {
    ComponentSlot& slot = slots_.at(member_id);
    ComponentSnapshot snap;
    snap.component_id = member_id;
    snap.type_name = slot.instance->type_name();
    snap.name = slot.instance->name();
    snap.kind = slot.instance->kind();
    snap.fields = slot.fields.Snapshot();
    out.push_back(std::move(snap));
  }
  return out;
}

Status Context::RestoreComponent(const ComponentSnapshot& snap) {
  Simulation* sim = process_->simulation();
  PHX_ASSIGN_OR_RETURN(std::unique_ptr<Component> instance,
                       sim->factories().Create(snap.type_name));
  Component* comp = AddComponent(std::move(instance), snap.type_name,
                                 snap.name, snap.kind, snap.component_id);
  process_->IndexComponentName(snap.name, id_);
  ComponentSlot* slot = FindSlotById(snap.component_id);
  PHX_RETURN_IF_ERROR(slot->fields.Restore(snap.fields));
  // Keep the deterministic subordinate-id allocator ahead of every restored
  // member.
  uint64_t sub_base = kSubordinateIdBase + id_ * kMaxSubordinates;
  if (snap.component_id >= sub_base + next_sub_index_ &&
      snap.component_id < sub_base + kMaxSubordinates) {
    next_sub_index_ = snap.component_id - sub_base + 1;
  }
  if (snap.component_id == parent_id_) parent_initialized_ = true;
  (void)comp;
  return Status::OK();
}

size_t Context::StateSizeHint() {
  size_t total = 64;
  for (uint64_t member_id : member_ids_) {
    total += slots_.at(member_id).fields.StateSizeHint() + 32;
  }
  return total;
}

}  // namespace phoenix
