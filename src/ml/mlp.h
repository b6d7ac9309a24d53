// Fully-connected feed-forward network (ReLU hidden layers, sigmoid output)
// trained by minibatch Adam with manual backprop on soft targets.

#ifndef CROSSMODAL_ML_MLP_H_
#define CROSSMODAL_ML_MLP_H_

#include <vector>

#include "ml/model.h"

namespace crossmodal {

/// MLP hyperparameters.
struct MlpOptions {
  TrainOptions train;
  /// Hidden layer widths, e.g. {32} or {64, 32}. Must be non-empty.
  std::vector<int> hidden = {32};
  double init_scale = 0.2;  ///< He-style init scale multiplier.
};

/// The fully-connected DNN of the paper's TFX pipelines.
class Mlp : public Model {
 public:
  /// Trains on `data`; fails on an empty dataset or empty hidden spec.
  [[nodiscard]] static Result<Mlp> Train(const Dataset& data, const MlpOptions& options);

  double Predict(const SparseRow& x) const override;
  /// Last hidden layer activations (the embedding fusion architectures use).
  std::vector<double> Embed(const SparseRow& x) const override;
  size_t embed_dim() const override;
  double PredictFromEmbedding(const std::vector<double>& e) const override;
  size_t num_parameters() const override;

 private:
  /// Forward pass into the flat workspace `acts` (acts_size_ entries):
  /// layer l's post-ReLU output follows layer l-1's. Returns the last
  /// hidden layer's activations (a pointer into `acts`).
  const double* Forward(const SparseRow& x, double* acts) const;
  /// Forward into this thread's reused workspace (no per-call allocation);
  /// the result stays valid until the thread's next call.
  const double* ForwardScratch(const SparseRow& x) const;
  /// Output-layer logit of last-hidden-layer activations `last`.
  double Logit(const double* last) const;

  size_t input_dim_ = 0;
  std::vector<int> hidden_;
  size_t acts_size_ = 0;  ///< Sum of the hidden widths.
  /// weights_[l]: layer l weight matrix. Layer 0 is stored input-major
  /// ([input_dim][h0]) for sparse forward passes; later layers output-major.
  std::vector<std::vector<double>> weights_;
  std::vector<std::vector<double>> biases_;
  std::vector<double> out_weights_;
  double out_bias_ = 0.0;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_ML_MLP_H_
