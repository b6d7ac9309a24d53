#include "graph/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "util/check.h"
#include "util/logging.h"

namespace crossmodal {
namespace {

// Each sum runs in index order in its own double accumulator, so a norm
// computed once per row is the same double as one computed per pair.
double SquaredNorm(const float* a, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += static_cast<double>(a[i]) * a[i];
  return sum;
}

/// Cosine of two length-`n` vectors whose L2 norms are `norm_a`, `norm_b`.
double CosineFromNorms(const float* a, const float* b, size_t n,
                       double norm_a, double norm_b) {
  double dot = 0.0;
  for (size_t i = 0; i < n; ++i) dot += static_cast<double>(a[i]) * b[i];
  const double denom = norm_a * norm_b;
  if (denom <= 0.0) return 0.0;
  return dot / denom;
}

/// Where a span of `len` entries appended at `at` starts, as a cell stores
/// it; the layout indexes its arrays with 32-bit offsets.
uint32_t SpanStart(size_t at, size_t len) {
  CM_CHECK(len < (size_t{1} << 30) &&
           at + len <= std::numeric_limits<uint32_t>::max())
      << "compiled similarity rows exceed 32-bit offsets";
  return static_cast<uint32_t>(at);
}

}  // namespace

double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b) {
  CM_CHECK(a.size() == b.size());
  return CosineFromNorms(a.data(), b.data(), a.size(),
                         std::sqrt(SquaredNorm(a.data(), a.size())),
                         std::sqrt(SquaredNorm(b.data(), b.size())));
}

FeatureSimilarity::FeatureSimilarity(const FeatureSchema* schema,
                                     std::vector<FeatureId> features)
    : schema_(schema), features_(std::move(features)) {
  CM_CHECK(schema_ != nullptr);
  numeric_scale_.assign(features_.size(), 1.0);
}

void FeatureSimilarity::FitNormalization(
    const std::vector<const FeatureVector*>& rows) {
  for (size_t idx = 0; idx < features_.size(); ++idx) {
    const FeatureId f = features_[idx];
    if (schema_->def(f).type != FeatureType::kNumeric) continue;
    double sum = 0.0, sum_sq = 0.0;
    size_t count = 0;
    for (const auto* row : rows) {
      const FeatureValue& v = row->Get(f);
      if (v.is_missing() || v.type() != FeatureType::kNumeric) continue;
      sum += v.numeric();
      sum_sq += v.numeric() * v.numeric();
      ++count;
    }
    if (count >= 2) {
      const double mean = sum / count;
      const double var = std::max(0.0, sum_sq / count - mean * mean);
      numeric_scale_[idx] = std::max(1e-6, std::sqrt(var));
    }
  }
}

CompiledRows FeatureSimilarity::Compile(
    const std::vector<const FeatureVector*>& rows) const {
  // Item keys order (feature id, category); flipping the sign bit makes
  // unsigned order agree with int32 category order, so numbering the
  // sorted keys keeps each categorical cell's span ascending.
  auto item_key = [](FeatureId f, int32_t c) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(f)) << 32) |
           (static_cast<uint32_t>(c) ^ 0x80000000u);
  };
  std::unordered_map<uint64_t, uint32_t> item_number;
  size_t num_categories = 0, num_floats = 0;
  for (const FeatureVector* row : rows) {
    for (FeatureId f : features_) {
      const FeatureValue& v = row->Get(f);
      if (v.is_missing()) continue;
      if (v.type() == FeatureType::kEmbedding) {
        num_floats += v.embedding().size();
      } else if (v.type() == FeatureType::kCategorical) {
        num_categories += v.categories().size();
        for (int32_t c : v.categories()) item_number.emplace(item_key(f, c), 0);
      }
    }
  }
  std::vector<uint64_t> keys;
  keys.reserve(item_number.size());
  // cmlint: unordered-ok — the keys are sorted before they are numbered.
  for (const auto& entry : item_number) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  for (size_t k = 0; k < keys.size(); ++k) {
    item_number[keys[k]] = static_cast<uint32_t>(k);
  }

  CompiledRows out;
  out.width_ = features_.size();
  out.num_items_ = keys.size();
  out.cells_.resize(rows.size() * out.width_);
  out.row_items_.reserve(rows.size() + 1);
  out.items_.reserve(num_categories);
  out.floats_.reserve(num_floats);
  for (size_t r = 0; r < rows.size(); ++r) {
    CompiledRows::Cell* cells = out.cells_.data() + r * out.width_;
    for (size_t idx = 0; idx < out.width_; ++idx) {
      const FeatureValue& v = rows[r]->Get(features_[idx]);
      CompiledRows::Cell& cell = cells[idx];  // value-initialized: kMissing
      if (v.is_missing()) continue;
      switch (v.type()) {
        case FeatureType::kNumeric:
          cell.kind = CompiledRows::kNumeric;
          cell.value = v.numeric();
          break;
        case FeatureType::kCategorical: {
          const std::vector<int32_t>& cats = v.categories();
          cell.kind = CompiledRows::kCategorical;
          cell.begin = SpanStart(out.items_.size(), cats.size());
          cell.size = static_cast<uint32_t>(cats.size());
          for (int32_t c : cats) {
            out.items_.push_back(item_number.find(item_key(features_[idx], c))
                                     ->second);
          }
          break;
        }
        case FeatureType::kEmbedding: {
          const std::vector<float>& emb = v.embedding();
          cell.kind = CompiledRows::kEmbedding;
          cell.value = std::sqrt(SquaredNorm(emb.data(), emb.size()));
          cell.begin = SpanStart(out.floats_.size(), emb.size());
          cell.size = static_cast<uint32_t>(emb.size());
          out.floats_.insert(out.floats_.end(), emb.begin(), emb.end());
          break;
        }
      }
    }
    out.row_items_.push_back(static_cast<uint32_t>(out.items_.size()));
  }
  return out;
}

double FeatureSimilarity::Weight(const CompiledRows& rows, size_t i,
                                 size_t j) const {
  CM_DCHECK_EQ(rows.width_, features_.size());
  const CompiledRows::Cell* a = rows.cells_.data() + i * rows.width_;
  const CompiledRows::Cell* b = rows.cells_.data() + j * rows.width_;
  const uint32_t* items = rows.items_.data();
  const float* floats = rows.floats_.data();
  double total = 0.0;
  size_t present = 0;
  for (size_t idx = 0; idx < features_.size(); ++idx) {
    const CompiledRows::Cell& ca = a[idx];
    const CompiledRows::Cell& cb = b[idx];
    if (ca.kind == CompiledRows::kMissing || ca.kind != cb.kind) continue;
    double sim = 0.0;
    switch (ca.kind) {
      case CompiledRows::kCategorical:
        // Single-item sets, the common case: 1/1 or 0/2.
        if (ca.size == 1 && cb.size == 1) {
          sim = static_cast<double>(items[ca.begin] == items[cb.begin]);
        } else {
          sim = SortedSetJaccard(items + ca.begin, ca.size, items + cb.begin,
                                 cb.size);
        }
        break;
      case CompiledRows::kNumeric: {
        const double d = std::abs(ca.value - cb.value) / numeric_scale_[idx];
        sim = std::exp(-d);
        break;
      }
      case CompiledRows::kEmbedding:
        if (ca.size != cb.size) continue;
        sim = 0.5 * (1.0 + CosineFromNorms(floats + ca.begin,
                                           floats + cb.begin, ca.size,
                                           ca.value, cb.value));
        break;
    }
    total += sim;
    ++present;
  }
  return present == 0 ? 0.0 : total / static_cast<double>(present);
}

double FeatureSimilarity::Weight(const FeatureVector& a,
                                 const FeatureVector& b) const {
  return Weight(Compile({&a, &b}), 0, 1);
}

}  // namespace crossmodal
