#include "features/feature_vector.h"

#include "util/logging.h"

namespace crossmodal {

const FeatureValue FeatureVector::kMissing = FeatureValue::Missing();

void FeatureVector::Set(FeatureId id, FeatureValue value) {
  CM_CHECK(id >= 0 && static_cast<size_t>(id) < values_.size())
      << "feature id out of range: " << id;
  values_[static_cast<size_t>(id)] = std::move(value);
}

double FeatureVector::Density() const {
  if (values_.empty()) return 0.0;
  size_t populated = 0;
  for (const auto& v : values_) {
    if (!v.is_missing()) ++populated;
  }
  return static_cast<double>(populated) / static_cast<double>(values_.size());
}

void FeatureStore::Put(EntityId entity, FeatureVector row) {
  CM_CHECK(row.size() == schema_->size())
      << "row arity " << row.size() << " != schema arity " << schema_->size();
  rows_[entity] = std::move(row);
}

Result<const FeatureVector*> FeatureStore::Get(EntityId entity) const {
  auto it = rows_.find(entity);
  if (it == rows_.end()) {
    return Status::NotFound("no features for entity " +
                            std::to_string(entity));
  }
  return &it->second;
}

}  // namespace crossmodal
