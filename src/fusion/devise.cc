#include <algorithm>

#include "fusion/internal.h"
#include "ml/adam.h"
#include "util/logging.h"
#include "util/random.h"

namespace crossmodal {

namespace {

using fusion_internal::BuildDataset;
using fusion_internal::CollectRows;
using fusion_internal::MaskedRows;

/// Linear projection P (with bias) from the new-modality embedding space to
/// the frozen old-modality embedding space, trained by Adam on MSE.
class Projection {
 public:
  Projection(size_t in_dim, size_t out_dim)
      : in_dim_(in_dim), out_dim_(out_dim), w_(in_dim * out_dim, 0.0),
        b_(out_dim, 0.0) {}

  std::vector<double> Apply(const std::vector<double>& e) const {
    std::vector<double> out(out_dim_);
    for (size_t o = 0; o < out_dim_; ++o) {
      double acc = b_[o];
      const double* row = &w_[o * in_dim_];
      for (size_t i = 0; i < in_dim_; ++i) acc += row[i] * e[i];
      out[o] = acc;
    }
    return out;
  }

  /// Fits P to match targets[i] = P(inputs[i]) in least squares.
  void Fit(const std::vector<std::vector<double>>& inputs,
           const std::vector<std::vector<double>>& targets, int epochs,
           double lr, uint64_t seed) {
    CM_CHECK(inputs.size() == targets.size());
    Adam adam(lr);
    AdamMoments moments_w(w_.size()), moments_b(b_.size());
    Rng rng(seed);
    // Batch gradients; the Adam pass consumes (zeroes) them.
    std::vector<double> gw(w_.size(), 0.0), gb(b_.size(), 0.0);
    const size_t n = inputs.size();
    const size_t batch = 32;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      const auto perm = rng.Permutation(n);
      for (size_t start = 0; start < n; start += batch) {
        const size_t end = std::min(n, start + batch);
        for (size_t k = start; k < end; ++k) {
          const auto& x = inputs[perm[k]];
          const auto& y = targets[perm[k]];
          const auto pred = Apply(x);
          for (size_t o = 0; o < out_dim_; ++o) {
            const double err = pred[o] - y[o];
            double* row = &gw[o * in_dim_];
            for (size_t i = 0; i < in_dim_; ++i) row[i] += err * x[i];
            gb[o] += err;
          }
        }
        const double scale = 1.0 / static_cast<double>(end - start);
        adam.NextStep();
        adam.UpdateAll(&gw, scale, 0.0, &moments_w, &w_);
        adam.UpdateAll(&gb, scale, 0.0, &moments_b, &b_);
      }
    }
  }

 private:
  size_t in_dim_, out_dim_;
  std::vector<double> w_;  // out_dim x in_dim, row-major
  std::vector<double> b_;
};

/// DeViSE adapted to the common feature space (§5): frozen old-modality
/// model A, new-modality model B, projection P from B's embedding space to
/// A's; inference passes B's embedding through P and A's prediction layer.
class DeviseModel : public CrossModalModel {
 public:
  DeviseModel(FeatureEncoder enc_a, ModelPtr model_a, FeatureEncoder enc_b,
              ModelPtr model_b, Projection projection,
              std::vector<FeatureId> image_features, size_t arity)
      : enc_a_(std::move(enc_a)),
        model_a_(std::move(model_a)),
        enc_b_(std::move(enc_b)),
        model_b_(std::move(model_b)),
        projection_(std::move(projection)),
        image_features_(std::move(image_features)),
        arity_(arity) {}

  double Score(const FeatureVector& row) const override {
    const auto e_b = model_b_->Embed(
        enc_b_.Encode(MaskRow(row, image_features_, arity_)));
    return model_a_->PredictFromEmbedding(projection_.Apply(e_b));
  }

  const char* method_name() const override { return "devise"; }

 private:
  FeatureEncoder enc_a_;
  ModelPtr model_a_;
  FeatureEncoder enc_b_;
  ModelPtr model_b_;
  Projection projection_;
  std::vector<FeatureId> image_features_;
  size_t arity_;
};

}  // namespace

Result<CrossModalModelPtr> TrainDeViSE(const FusionInput& input,
                                       const ModelSpec& spec) {
  if (input.points.empty()) {
    return Status::InvalidArgument("no training points");
  }
  const size_t arity = input.store->schema().size();

  // ---- Model A over existing modalities (then frozen). -----------------
  const Modality text = Modality::kText;
  CM_ASSIGN_OR_RETURN(MaskedRows text_rows,
                      CollectRows(input, &text, true, {}));
  if (text_rows.rows.empty()) {
    return Status::FailedPrecondition("DeViSE needs old-modality points");
  }
  EncoderOptions enc_a_options;
  enc_a_options.features = input.text_features;
  CM_ASSIGN_OR_RETURN(FeatureEncoder enc_a,
                      FeatureEncoder::Fit(input.store->schema(),
                                          text_rows.ptrs, enc_a_options));
  CM_ASSIGN_OR_RETURN(ModelPtr model_a,
                      TrainModel(BuildDataset(text_rows, enc_a), spec));

  // ---- Model B pre-trained on the weakly supervised new modality. ------
  const Modality image = Modality::kImage;
  CM_ASSIGN_OR_RETURN(MaskedRows image_rows,
                      CollectRows(input, &image, true, {}));
  if (image_rows.rows.empty()) {
    return Status::FailedPrecondition("DeViSE needs new-modality points");
  }
  EncoderOptions enc_b_options;
  enc_b_options.features = input.image_features;
  CM_ASSIGN_OR_RETURN(FeatureEncoder enc_b,
                      FeatureEncoder::Fit(input.store->schema(),
                                          image_rows.ptrs, enc_b_options));
  CM_ASSIGN_OR_RETURN(ModelPtr model_b,
                      TrainModel(BuildDataset(image_rows, enc_b), spec));

  // ---- Projection layer: match B's embedding (Y) to A's embedding (X)
  // computed from the shared features of the same new-modality points. ----
  std::vector<std::vector<double>> inputs, targets;
  inputs.reserve(image_rows.rows.size());
  targets.reserve(image_rows.rows.size());
  for (size_t i = 0; i < image_rows.rows.size(); ++i) {
    const FeatureVector* full_row = nullptr;
    auto got = input.store->Get(image_rows.points[i]->id);
    if (!got.ok()) return got.status();
    full_row = *got;
    inputs.push_back(model_b->Embed(enc_b.Encode(image_rows.rows[i])));
    targets.push_back(model_a->Embed(
        enc_a.Encode(MaskRow(*full_row, input.text_features, arity))));
  }
  Projection projection(model_b->embed_dim(), model_a->embed_dim());
  projection.Fit(inputs, targets, /*epochs=*/30, /*lr=*/0.01,
                 DeriveSeed(spec.train.seed, "devise_projection"));

  return CrossModalModelPtr(std::make_unique<DeviseModel>(
      std::move(enc_a), std::move(model_a), std::move(enc_b),
      std::move(model_b), std::move(projection), input.image_features, arity));
}

}  // namespace crossmodal
