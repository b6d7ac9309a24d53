#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "ml/adam.h"
#include "ml/packed.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace crossmodal {

const double* Mlp::Forward(const SparseRow& x, double* acts) const {
  // Layer 0: sparse input x dense [input_dim][h0] matrix.
  const size_t h0 = static_cast<size_t>(hidden_[0]);
  double* a0 = acts;
  packed::SparseTimesMatrix(x, weights_[0].data(), h0, a0);
  for (size_t j = 0; j < h0; ++j) {
    a0[j] = std::max(0.0, a0[j] + biases_[0][j]);
  }
  // Later layers: dense, output-major [h_l][h_{l-1}].
  double* prev = a0;
  for (size_t l = 1; l < hidden_.size(); ++l) {
    const size_t hl = static_cast<size_t>(hidden_[l]);
    const size_t hp = static_cast<size_t>(hidden_[l - 1]);
    double* al = prev + hp;
    for (size_t j = 0; j < hl; ++j) {
      const double* w_row = &weights_[l][j * hp];
      double acc = biases_[l][j];
      for (size_t i = 0; i < hp; ++i) acc += w_row[i] * prev[i];
      al[j] = std::max(0.0, acc);
    }
    prev = al;
  }
  return prev;
}

const double* Mlp::ForwardScratch(const SparseRow& x) const {
  // Serving threads score one shared model concurrently, so the reused
  // workspace belongs to the thread, not to the model.
  thread_local std::vector<double> acts;
  acts.resize(acts_size_);
  return Forward(x, acts.data());
}

double Mlp::Logit(const double* last) const {
  double logit = out_bias_;
  for (size_t j = 0; j < out_weights_.size(); ++j) {
    logit += out_weights_[j] * last[j];
  }
  return logit;
}

Result<Mlp> Mlp::Train(const Dataset& data, const MlpOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  if (options.hidden.empty()) {
    return Status::InvalidArgument("MLP needs at least one hidden layer");
  }
  for (int h : options.hidden) {
    if (h <= 0) return Status::InvalidArgument("hidden width must be > 0");
  }

  Mlp model;
  model.input_dim_ = data.dim;
  model.hidden_ = options.hidden;
  Rng rng(options.train.seed);

  const size_t num_hidden = model.hidden_.size();
  // offset[l]: where layer l starts in the flat activation/delta workspaces.
  std::vector<size_t> offset(num_hidden, 0);
  for (size_t l = 0; l < num_hidden; ++l) {
    offset[l] = model.acts_size_;
    model.acts_size_ += static_cast<size_t>(model.hidden_[l]);
  }
  model.weights_.resize(num_hidden);
  model.biases_.resize(num_hidden);
  const size_t h0 = static_cast<size_t>(model.hidden_[0]);
  {
    model.weights_[0].resize(data.dim * h0);
    const double s0 = options.init_scale * std::sqrt(2.0 / std::max<size_t>(
                                                              1, data.dim));
    for (auto& w : model.weights_[0]) w = rng.Normal(0.0, s0);
    model.biases_[0].assign(h0, 0.0);
  }
  for (size_t l = 1; l < num_hidden; ++l) {
    const size_t hl = static_cast<size_t>(model.hidden_[l]);
    const size_t hp = static_cast<size_t>(model.hidden_[l - 1]);
    model.weights_[l].resize(hl * hp);
    const double sl = options.init_scale * std::sqrt(2.0 / hp);
    for (auto& w : model.weights_[l]) w = rng.Normal(0.0, sl);
    model.biases_[l].assign(hl, 0.0);
  }
  const size_t h_last = static_cast<size_t>(model.hidden_.back());
  model.out_weights_.resize(h_last);
  for (auto& w : model.out_weights_) {
    w = rng.Normal(0.0, options.init_scale * std::sqrt(2.0 / h_last));
  }
  model.out_bias_ = 0.0;

  const TrainOptions& t = options.train;

  // Adam moments + batch gradients mirroring the parameter shapes. The Adam
  // pass consumes each gradient, so all are zero when a batch starts.
  Adam adam(t.learning_rate);
  std::vector<AdamMoments> adam_w, adam_b;
  std::vector<std::vector<double>> grad_w(num_hidden), grad_b(num_hidden);
  for (size_t l = 0; l < num_hidden; ++l) {
    adam_w.emplace_back(model.weights_[l].size());
    adam_b.emplace_back(model.biases_[l].size());
    grad_w[l].assign(model.weights_[l].size(), 0.0);
    grad_b[l].assign(model.biases_[l].size(), 0.0);
  }
  AdamMoments adam_out(h_last);
  double out_bias_m = 0.0, out_bias_v = 0.0;
  std::vector<double> grad_out(h_last, 0.0);
  double grad_out_b = 0.0;

  // Per-slice gradient partials + forward/backward workspaces. Each of the
  // kGradSlices fixed batch slices accumulates into its own buffers while
  // reading the (frozen-within-batch) model weights; the partials fold into
  // grad_* in slice order before the Adam step, so the summation tree — and
  // therefore every fitted weight — is bit-identical at any thread count.
  // Layer 0's partial is sparse: a slice lists the input rows it touched,
  // and only those rows are folded (and cleared). A row a slice never
  // touched would add +0.0; sums that start at +0.0 are never -0.0, so
  // adding +0.0 changes none of them.
  struct SliceGrads {
    std::vector<std::vector<double>> grad_w, grad_b;
    std::vector<uint32_t> rows;     // layer-0 input rows touched, each once
    std::vector<uint8_t> row_seen;  // membership mark for `rows`
    std::vector<double> grad_out;
    double grad_out_b = 0.0;
    std::vector<double> acts, delta;  // flat workspaces, laid out by offset
  };
  StagePool stage_pool(t.parallel);
  std::vector<SliceGrads> slices(kGradSlices);
  for (auto& s : slices) {
    s.grad_w.resize(num_hidden);
    s.grad_b.resize(num_hidden);
    for (size_t l = 0; l < num_hidden; ++l) {
      s.grad_w[l].assign(model.weights_[l].size(), 0.0);
      s.grad_b[l].assign(model.biases_[l].size(), 0.0);
    }
    s.rows.reserve(data.dim);
    s.row_seen.assign(data.dim, 0);
    s.grad_out.assign(h_last, 0.0);
    s.acts.assign(model.acts_size_, 0.0);
    s.delta.assign(model.acts_size_, 0.0);
  }

  const size_t n = data.size();
  for (int epoch = 0; epoch < t.epochs; ++epoch) {
    const auto perm = rng.Permutation(n);
    for (size_t start = 0; start < n; start += t.batch_size) {
      const size_t end = std::min(n, start + t.batch_size);
      const size_t batch = end - start;
      const size_t used_slices = std::min<size_t>(kGradSlices, batch);

      ForEachSlice(stage_pool.get(), batch, kGradSlices,
                   [&](size_t slice, size_t s_begin, size_t s_end) {
        auto& s = slices[slice];
        for (size_t k = s_begin; k < s_end; ++k) {
          const Example& ex = data.examples[perm[start + k]];
          const double* last = model.Forward(ex.x, s.acts.data());
          const double p = Sigmoid(model.Logit(last));
          double w = ex.weight;
          if (ex.target > 0.5) w *= t.positive_weight;
          const double g_out = w * (p - ex.target);  // dL/dlogit

          // Output layer gradients.
          packed::AddScaled(s.grad_out.data(), last, g_out, h_last);
          s.grad_out_b += g_out;

          // Backprop through hidden layers; layer l's delta sits at the
          // same offset as its activations.
          double* d_last = s.delta.data() + offset[num_hidden - 1];
          for (size_t j = 0; j < h_last; ++j) {
            d_last[j] = last[j] > 0.0 ? g_out * model.out_weights_[j] : 0.0;
          }
          for (size_t l = num_hidden - 1; l >= 1; --l) {
            const size_t hl = static_cast<size_t>(model.hidden_[l]);
            const size_t hp = static_cast<size_t>(model.hidden_[l - 1]);
            const double* prev = s.acts.data() + offset[l - 1];
            const double* d_l = s.delta.data() + offset[l];
            double* d_prev = s.delta.data() + offset[l - 1];
            std::fill(d_prev, d_prev + hp, 0.0);
            for (size_t j = 0; j < hl; ++j) {
              const double dj = d_l[j];
              if (dj == 0.0) continue;
              double* gw_row = &s.grad_w[l][j * hp];
              const double* w_row = &model.weights_[l][j * hp];
              for (size_t i = 0; i < hp; ++i) {
                gw_row[i] += dj * prev[i];
                if (prev[i] > 0.0) d_prev[i] += dj * w_row[i];
              }
              s.grad_b[l][j] += dj;
            }
          }
          // Input layer gradients (sparse rows).
          const double* d0 = s.delta.data();
          for (const auto& entry : ex.x.entries) {
            if (s.row_seen[entry.first] == 0) {
              s.row_seen[entry.first] = 1;
              s.rows.push_back(entry.first);
            }
          }
          packed::AddOuterToRows(ex.x, d0, h0, s.grad_w[0].data());
          for (size_t j = 0; j < h0; ++j) s.grad_b[0][j] += d0[j];
        }
      });

      // Fold slice partials in fixed slice order, clearing them as they go.
      for (size_t si = 0; si < used_slices; ++si) {
        auto& s = slices[si];
        for (uint32_t row : s.rows) {
          const size_t at = static_cast<size_t>(row) * h0;
          packed::FoldInto(&grad_w[0][at], &s.grad_w[0][at], h0);
          s.row_seen[row] = 0;
        }
        s.rows.clear();
        for (size_t l = 1; l < num_hidden; ++l) {
          packed::FoldInto(grad_w[l].data(), s.grad_w[l].data(),
                           grad_w[l].size());
        }
        for (size_t l = 0; l < num_hidden; ++l) {
          packed::FoldInto(grad_b[l].data(), s.grad_b[l].data(),
                           grad_b[l].size());
        }
        packed::FoldInto(grad_out.data(), s.grad_out.data(), h_last);
        grad_out_b += s.grad_out_b;
        s.grad_out_b = 0.0;
      }

      // Adam step (gradients averaged over the batch; L2 on the weights).
      const double scale = 1.0 / static_cast<double>(batch);
      adam.NextStep();
      for (size_t l = 0; l < num_hidden; ++l) {
        adam.UpdateAll(&grad_w[l], scale, t.l2, &adam_w[l], &model.weights_[l]);
        adam.UpdateAll(&grad_b[l], scale, 0.0, &adam_b[l], &model.biases_[l]);
      }
      adam.UpdateAll(&grad_out, scale, t.l2, &adam_out, &model.out_weights_);
      adam.Update(grad_out_b * scale, &out_bias_m, &out_bias_v,
                  &model.out_bias_);
      grad_out_b = 0.0;
    }
  }
  return model;
}

double Mlp::Predict(const SparseRow& x) const {
  return Sigmoid(Logit(ForwardScratch(x)));
}

std::vector<double> Mlp::Embed(const SparseRow& x) const {
  const double* last = ForwardScratch(x);
  return std::vector<double>(last, last + hidden_.back());
}

double Mlp::PredictFromEmbedding(const std::vector<double>& e) const {
  CM_CHECK(e.size() == out_weights_.size());
  return Sigmoid(Logit(e.data()));
}

size_t Mlp::embed_dim() const {
  return static_cast<size_t>(hidden_.back());
}

size_t Mlp::num_parameters() const {
  size_t total = out_weights_.size() + 1;
  for (size_t l = 0; l < weights_.size(); ++l) {
    total += weights_[l].size() + biases_[l].size();
  }
  return total;
}

}  // namespace crossmodal
