#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "ml/adam.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace crossmodal {

double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

Result<LogisticRegression> LogisticRegression::Train(
    const Dataset& data, const TrainOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty training set");

  LogisticRegression model;
  model.weights_.assign(data.dim, 0.0);
  model.bias_ = 0.0;

  // Lazy Adam: a batch steps the bias and, exactly once each, the weights
  // whose index appears in one of its rows (whatever the entry's value).
  Adam adam(options.learning_rate);
  AdamMoments moments(data.dim);
  double mb = 0.0, vb = 0.0;

  std::vector<double> grad(data.dim, 0.0);
  std::vector<uint32_t> touched;
  touched.reserve(data.dim);
  std::vector<uint8_t> in_batch(data.dim, 0);

  // Per-slice partial gradients: each of the kGradSlices fixed batch slices
  // accumulates into its own dense buffer (+ touched list and membership
  // mark for sparse reset), then the partials are folded into `grad` in
  // slice order. The summation tree depends only on the batch split, so the
  // fitted weights are bit-identical whether the slices run inline or
  // across workers.
  StagePool stage_pool(options.parallel);
  std::vector<std::vector<double>> slice_grad(kGradSlices);
  std::vector<std::vector<uint32_t>> slice_touched(kGradSlices);
  std::vector<std::vector<uint8_t>> slice_seen(kGradSlices);
  std::vector<double> slice_grad_b(kGradSlices, 0.0);
  for (auto& sg : slice_grad) sg.assign(data.dim, 0.0);
  // Worst case every feature is touched; the reserve keeps the slice loop
  // allocation-free.
  for (auto& st : slice_touched) st.reserve(data.dim);
  for (auto& seen : slice_seen) seen.assign(data.dim, 0);

  Rng rng(options.seed);
  const size_t n = data.size();
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const auto perm = rng.Permutation(n);
    for (size_t start = 0; start < n; start += options.batch_size) {
      const size_t end = std::min(n, start + options.batch_size);
      const size_t batch = end - start;
      std::fill(slice_grad_b.begin(), slice_grad_b.end(), 0.0);
      ForEachSlice(stage_pool.get(), batch, kGradSlices,
                   [&](size_t slice, size_t s_begin, size_t s_end) {
        auto& sg = slice_grad[slice];
        auto& st = slice_touched[slice];
        auto& seen = slice_seen[slice];
        double gb = 0.0;
        for (size_t k = s_begin; k < s_end; ++k) {
          const Example& ex = data.examples[perm[start + k]];
          const double p = Sigmoid(ex.x.Dot(model.weights_) + model.bias_);
          double w = ex.weight;
          if (ex.target > 0.5) w *= options.positive_weight;
          // Noise-aware CE gradient: (p - soft_target).
          const double g = w * (p - ex.target);
          for (const auto& [idx, val] : ex.x.entries) {
            if (seen[idx] == 0) {
              seen[idx] = 1;
              st.push_back(idx);
            }
            sg[idx] += g * val;
          }
          gb += g;
        }
        slice_grad_b[slice] = gb;
      });
      // Fold partials in fixed slice order; clear them for the next batch.
      double grad_b = 0.0;
      for (size_t slice = 0; slice < kGradSlices; ++slice) {
        for (uint32_t idx : slice_touched[slice]) {
          if (in_batch[idx] == 0) {
            in_batch[idx] = 1;
            touched.push_back(idx);
          }
          grad[idx] += slice_grad[slice][idx];
          slice_grad[slice][idx] = 0.0;
          slice_seen[slice][idx] = 0;
        }
        slice_touched[slice].clear();
        grad_b += slice_grad_b[slice];
      }
      const double scale = 1.0 / static_cast<double>(batch);
      adam.NextStep();
      for (uint32_t idx : touched) {
        adam.Update(grad[idx] * scale + options.l2 * model.weights_[idx],
                    &moments.m[idx], &moments.v[idx], &model.weights_[idx]);
        grad[idx] = 0.0;
        in_batch[idx] = 0;
      }
      touched.clear();
      adam.Update(grad_b * scale, &mb, &vb, &model.bias_);
    }
  }
  return model;
}

double LogisticRegression::Predict(const SparseRow& x) const {
  return Sigmoid(x.Dot(weights_) + bias_);
}

std::vector<double> LogisticRegression::Embed(const SparseRow& x) const {
  return {x.Dot(weights_) + bias_};
}

double LogisticRegression::PredictFromEmbedding(
    const std::vector<double>& e) const {
  CM_CHECK(e.size() == 1);
  return Sigmoid(e[0]);
}

}  // namespace crossmodal
