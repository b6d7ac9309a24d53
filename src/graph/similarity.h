// Pairwise entity similarity from the common feature space (Algorithm 1).
//
// The paper's Algorithm 1 accumulates per-feature contributions — a norm for
// numeric features, Jaccard for categorical — normalized per feature (the
// normalization the paper notes it omits "for simplicity" in the listing).
// We implement the normalized form: each feature contributes a similarity in
// [0, 1] (categorical: Jaccard; numeric: exp(-|delta|/scale); embedding:
// rescaled cosine), and the edge weight is the mean over features present in
// both points.
//
// Weights are computed over CompiledRows, a flat layout of the rows' cells
// built once per row set, so scoring a pair does no per-feature lookups,
// variant branches or norm recomputation.

#ifndef CROSSMODAL_GRAPH_SIMILARITY_H_
#define CROSSMODAL_GRAPH_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "features/feature_schema.h"
#include "features/feature_vector.h"

namespace crossmodal {

/// The similarity's feature cells of a set of rows, compiled once into a
/// flat, read-only, row-major layout (FeatureSimilarity::Compile). Each row
/// is one record of cells in features() order; a cell holds its kind
/// (missing, numeric, categorical or embedding), the numeric value or the
/// embedding's L2 norm, and a span of item numbers or embedding floats.
class CompiledRows {
 public:
  size_t num_rows() const { return row_items_.size() - 1; }

  /// Number of distinct (feature, category) items over all rows. Item
  /// numbers are dense in [0, num_items()) and ascend with the category
  /// within a feature.
  size_t num_items() const { return num_items_; }

  /// Item numbers of row `r`'s categorical cells, in features() order.
  const uint32_t* items_begin(size_t r) const {
    return items_.data() + row_items_[r];
  }
  const uint32_t* items_end(size_t r) const {
    return items_.data() + row_items_[r + 1];
  }

 private:
  friend class FeatureSimilarity;

  enum Kind { kMissing = 0, kNumeric, kCategorical, kEmbedding };
  struct Cell {
    double value;       ///< Numeric value, or the embedding's L2 norm.
    uint32_t begin;     ///< Span start in items_ (categorical) or floats_.
    uint32_t size : 30;
    uint32_t kind : 2;  ///< A Kind.
  };
  static_assert(sizeof(Cell) == 16, "a cell is two words");

  size_t width_ = 0;  ///< Cells per row.
  size_t num_items_ = 0;
  std::vector<Cell> cells_;          ///< num_rows() * width_, row-major.
  std::vector<uint32_t> row_items_{0};  ///< num_rows() + 1 offsets.
  std::vector<uint32_t> items_;      ///< Ascending per categorical cell.
  std::vector<float> floats_;
};

/// Computes Algorithm-1 edge weights over a chosen feature subset.
class FeatureSimilarity {
 public:
  /// Uses features `features` of `schema` for the weight computation.
  FeatureSimilarity(const FeatureSchema* schema,
                    std::vector<FeatureId> features);

  /// Estimates per-numeric-feature scales (robust std) from sample rows so
  /// numeric distances are comparable across features. Must be called before
  /// Weight() if any numeric feature is used; no-op otherwise.
  void FitNormalization(const std::vector<const FeatureVector*>& rows);

  /// Compiles the features() cells of `rows` into the layout Weight() reads.
  CompiledRows Compile(const std::vector<const FeatureVector*>& rows) const;

  /// Edge weight w_ij in [0, 1] between rows `i` and `j` of `rows`, which
  /// this similarity compiled; 0 when no feature is present in both rows.
  double Weight(const CompiledRows& rows, size_t i, size_t j) const;

  /// Weight of two rows; compiles both first, so prefer the compiled form
  /// when scoring many pairs.
  double Weight(const FeatureVector& a, const FeatureVector& b) const;

  const std::vector<FeatureId>& features() const { return features_; }

 private:
  const FeatureSchema* schema_;
  std::vector<FeatureId> features_;
  std::vector<double> numeric_scale_;  // parallel to features_; 1.0 default
};

/// Cosine similarity of two equal-length float vectors, in [-1, 1].
double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b);

}  // namespace crossmodal

#endif  // CROSSMODAL_GRAPH_SIMILARITY_H_
