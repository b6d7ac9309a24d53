#include "features/feature_value.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace crossmodal {

const char* FeatureTypeName(FeatureType type) {
  switch (type) {
    case FeatureType::kNumeric:
      return "numeric";
    case FeatureType::kCategorical:
      return "categorical";
    case FeatureType::kEmbedding:
      return "embedding";
  }
  return "?";
}

FeatureValue FeatureValue::Numeric(double v) {
  FeatureValue fv;
  fv.missing_ = false;
  fv.type_ = FeatureType::kNumeric;
  fv.value_ = v;
  return fv;
}

FeatureValue FeatureValue::Categorical(std::vector<int32_t> categories) {
  std::sort(categories.begin(), categories.end());
  categories.erase(std::unique(categories.begin(), categories.end()),
                   categories.end());
  FeatureValue fv;
  fv.missing_ = false;
  fv.type_ = FeatureType::kCategorical;
  fv.value_ = std::move(categories);
  return fv;
}

FeatureValue FeatureValue::Embedding(std::vector<float> values) {
  FeatureValue fv;
  fv.missing_ = false;
  fv.type_ = FeatureType::kEmbedding;
  fv.value_ = std::move(values);
  return fv;
}

double FeatureValue::numeric() const {
  CM_CHECK(!missing_ && type_ == FeatureType::kNumeric);
  return std::get<double>(value_);
}

const std::vector<int32_t>& FeatureValue::categories() const {
  CM_CHECK(!missing_ && type_ == FeatureType::kCategorical);
  return std::get<std::vector<int32_t>>(value_);
}

const std::vector<float>& FeatureValue::embedding() const {
  CM_CHECK(!missing_ && type_ == FeatureType::kEmbedding);
  return std::get<std::vector<float>>(value_);
}

bool FeatureValue::HasCategory(int32_t category) const {
  if (missing_ || type_ != FeatureType::kCategorical) return false;
  const auto& cats = std::get<std::vector<int32_t>>(value_);
  return std::binary_search(cats.begin(), cats.end(), category);
}

double FeatureValue::Jaccard(const FeatureValue& a, const FeatureValue& b) {
  const auto& ca = a.categories();
  const auto& cb = b.categories();
  return SortedSetJaccard(ca.data(), ca.size(), cb.data(), cb.size());
}

std::string FeatureValue::ToString() const {
  if (missing_) return "missing";
  std::ostringstream ss;
  switch (type_) {
    case FeatureType::kNumeric:
      ss << std::get<double>(value_);
      break;
    case FeatureType::kCategorical: {
      ss << "{";
      const auto& cats = std::get<std::vector<int32_t>>(value_);
      for (size_t i = 0; i < cats.size(); ++i) {
        if (i > 0) ss << ",";
        ss << cats[i];
      }
      ss << "}";
      break;
    }
    case FeatureType::kEmbedding:
      ss << "emb[" << std::get<std::vector<float>>(value_).size() << "]";
      break;
  }
  return ss.str();
}

bool FeatureValue::operator==(const FeatureValue& other) const {
  if (missing_ != other.missing_) return false;
  if (missing_) return true;
  if (type_ != other.type_) return false;
  return value_ == other.value_;
}

}  // namespace crossmodal
