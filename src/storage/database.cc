#include "storage/database.h"

namespace mcm {

Result<Relation*> Database::CreateRelation(const std::string& name,
                                           uint32_t arity) {
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  auto rel = std::make_unique<Relation>(name, arity, &stats_);
  Relation* ptr = rel.get();
  relations_.emplace(name, std::move(rel));
  return ptr;
}

Result<Relation*> Database::AttachBorrowed(const std::string& name,
                                           std::shared_ptr<const Relation> base) {
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  auto rel = std::make_unique<Relation>(
      Relation::Borrow(std::move(base), &stats_));
  Relation* ptr = rel.get();
  relations_.emplace(name, std::move(rel));
  return ptr;
}

Relation* Database::GetOrCreateRelation(const std::string& name,
                                        uint32_t arity) {
  auto it = relations_.find(name);
  if (it != relations_.end()) return it->second.get();
  auto rel = std::make_unique<Relation>(name, arity, &stats_);
  Relation* ptr = rel.get();
  relations_.emplace(name, std::move(rel));
  return ptr;
}

Relation* Database::Find(const std::string& name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

Result<Relation*> Database::Get(const std::string& name) {
  Relation* rel = Find(name);
  if (rel == nullptr) {
    return Status::NotFound("relation '" + name + "' not found");
  }
  return rel;
}

bool Database::Drop(const std::string& name) {
  return relations_.erase(name) > 0;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) {
    (void)rel;
    names.push_back(name);
  }
  return names;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, rel] : relations_) {
    (void)name;
    total += rel->size();
  }
  return total;
}

Status Database::SnapshotInto(Database* dst) const {
  for (const auto& [name, rel] : relations_) {
    Relation* copy = dst->Find(name);
    if (copy == nullptr) {
      copy = dst->GetOrCreateRelation(name, rel->arity());
    } else if (copy->arity() != rel->arity()) {
      return Status::InvalidArgument(
          "snapshot arity mismatch for relation '" + name + "'");
    }
    for (const Tuple& t : rel->TuplesUnchecked()) copy->Insert(t);
  }
  return Status::OK();
}

size_t Database::ApproxBytes() const {
  size_t total = 0;
  for (const auto& [name, rel] : relations_) {
    (void)name;
    total += rel->ApproxBytes();
  }
  return total;
}

}  // namespace mcm
