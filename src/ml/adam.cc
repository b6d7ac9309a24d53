#include "ml/adam.h"

#include "ml/packed.h"
#include "util/check.h"

namespace crossmodal {

void Adam::UpdateAll(std::vector<double>* grad, double scale, double l2,
                     AdamMoments* moments, std::vector<double>* params) const {
  using packed::Double2;
  using packed::Load;
  using packed::Store;
  const size_t n = params->size();
  CM_CHECK(grad->size() == n && moments->m.size() == n &&
           moments->v.size() == n);
  double* gr = grad->data();
  double* m = moments->m.data();
  double* v = moments->v.data();
  double* p = params->data();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Double2 g = Load(gr + i) * scale + l2 * Load(p + i);
    const Double2 mi = kBeta1 * Load(m + i) + (1.0 - kBeta1) * g;
    const Double2 vi = kBeta2 * Load(v + i) + (1.0 - kBeta2) * g * g;
    Store(m + i, mi);
    Store(v + i, vi);
    Store(p + i, Load(p + i) - lr_ * (mi / corr1_) /
                                   (packed::Sqrt(vi / corr2_) + kEps));
    Store(gr + i, Double2{0.0, 0.0});
  }
  for (; i < n; ++i) {
    Update(gr[i] * scale + l2 * p[i], m + i, v + i, p + i);
    gr[i] = 0.0;
  }
}

}  // namespace crossmodal
