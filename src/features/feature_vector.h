// FeatureVector / FeatureStore: materialized common-feature-space rows.

#ifndef CROSSMODAL_FEATURES_FEATURE_VECTOR_H_
#define CROSSMODAL_FEATURES_FEATURE_VECTOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "features/feature_schema.h"
#include "features/feature_value.h"
#include "features/modality.h"
#include "util/result.h"

namespace crossmodal {

/// Opaque entity identifier (a post, image, or video).
using EntityId = uint64_t;

/// One entity's representation F_x = {f_1(x), ..., f_k(x)} in the common
/// feature space, aligned to a FeatureSchema: slot i holds feature i's value
/// (possibly missing).
class FeatureVector {
 public:
  FeatureVector() = default;

  /// Creates a vector with `size` missing slots.
  explicit FeatureVector(size_t size) : values_(size) {}

  size_t size() const { return values_.size(); }

  /// Sets slot `id` (must be in range).
  void Set(FeatureId id, FeatureValue value);

  /// Value of feature `id`; a missing FeatureValue if never set.
  const FeatureValue& Get(FeatureId id) const {
    if (id < 0 || static_cast<size_t>(id) >= values_.size()) return kMissing;
    return values_[static_cast<size_t>(id)];
  }

  bool IsMissing(FeatureId id) const { return Get(id).is_missing(); }

  /// Fraction of slots that are populated.
  double Density() const;

  const std::vector<FeatureValue>& values() const { return values_; }

 private:
  std::vector<FeatureValue> values_;
  static const FeatureValue kMissing;
};

/// In-memory feature store: entity id -> FeatureVector, with the schema the
/// vectors are aligned to. This is the handoff artifact between pipeline
/// step A (feature generation) and steps B/C.
class FeatureStore {
 public:
  explicit FeatureStore(const FeatureSchema* schema) : schema_(schema) {}

  /// Inserts or replaces the row for `entity`.
  void Put(EntityId entity, FeatureVector row);

  /// Looks up a row.
  [[nodiscard]] Result<const FeatureVector*> Get(EntityId entity) const;

  bool Contains(EntityId entity) const { return rows_.count(entity) > 0; }
  size_t size() const { return rows_.size(); }

  const FeatureSchema& schema() const { return *schema_; }

  /// Iteration support.
  auto begin() const { return rows_.begin(); }
  auto end() const { return rows_.end(); }

 private:
  const FeatureSchema* schema_;
  std::unordered_map<EntityId, FeatureVector> rows_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_FEATURES_FEATURE_VECTOR_H_
