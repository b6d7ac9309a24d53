// Adam with bias correction: the one update rule every trainer in the repo
// applies (MLP layers, logistic and softmax regression, the DeViSE
// projection).

#ifndef CROSSMODAL_ML_ADAM_H_
#define CROSSMODAL_ML_ADAM_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace crossmodal {

/// Adam's first and second moment estimates for one parameter vector.
struct AdamMoments {
  explicit AdamMoments(size_t n = 0) : m(n, 0.0), v(n, 0.0) {}
  std::vector<double> m, v;
};

/// Adam (beta1 0.9, beta2 0.999, eps 1e-8) at a fixed learning rate. Call
/// NextStep() once per minibatch, then update each parameter at most once.
class Adam {
 public:
  explicit Adam(double learning_rate) : lr_(learning_rate) {}

  /// Advances the bias corrections to the next step.
  void NextStep() {
    beta1_t_ *= kBeta1;
    beta2_t_ *= kBeta2;
    corr1_ = 1.0 - beta1_t_;
    corr2_ = 1.0 - beta2_t_;
  }

  /// Updates one parameter `p` and its moments `m`, `v` with gradient `g`.
  void Update(double g, double* m, double* v, double* p) const {
    *m = kBeta1 * *m + (1.0 - kBeta1) * g;
    *v = kBeta2 * *v + (1.0 - kBeta2) * g * g;
    *p -= lr_ * (*m / corr1_) / (std::sqrt(*v / corr2_) + kEps);
  }

  /// Updates every parameter with g_i = grad_i * scale + l2 * params_i and
  /// consumes the gradient: `grad` is left all zero for the next batch's
  /// accumulation. Two lanes at a time, lane by lane in Update's operation
  /// order, so the result is bit-identical to calling Update per element.
  void UpdateAll(std::vector<double>* grad, double scale, double l2,
                 AdamMoments* moments, std::vector<double>* params) const;

 private:
  static constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  double lr_;
  double beta1_t_ = 1.0, beta2_t_ = 1.0;
  double corr1_ = 0.0, corr2_ = 0.0;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_ML_ADAM_H_
