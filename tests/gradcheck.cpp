#include "gradcheck.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace omniboost::nn {

namespace {

double rel_error(double analytic, double numeric) {
  const double denom =
      std::max({std::fabs(analytic), std::fabs(numeric), 1e-4});
  return std::fabs(analytic - numeric) / denom;
}

double eval_loss(Module& module, const Tensor& x, const Tensor& target,
                 const Loss& loss) {
  return loss.compute(module.forward(x), target).value;
}

}  // namespace

GradCheckResult check_gradients(Module& module, const Tensor& x,
                                const Tensor& target, const Loss& loss,
                                float eps) {
  OB_REQUIRE(eps > 0.0f, "check_gradients: eps must be positive");
  GradCheckResult result;

  // Analytic pass.
  module.zero_grad();
  Tensor pred = module.forward(x);
  LossResult lr = loss.compute(pred, target);
  Tensor gx = module.backward(lr.grad);

  // Numeric input gradient.
  Tensor xp = x;
  for (std::size_t i = 0; i < xp.size(); ++i) {
    const float saved = xp[i];
    xp[i] = saved + eps;
    const double up = eval_loss(module, xp, target, loss);
    xp[i] = saved - eps;
    const double dn = eval_loss(module, xp, target, loss);
    xp[i] = saved;
    const double numeric = (up - dn) / (2.0 * eps);
    result.max_input_err =
        std::max(result.max_input_err, rel_error(gx[i], numeric));
  }

  // Numeric parameter gradients.
  for (Param* p : module.params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const double up = eval_loss(module, x, target, loss);
      p->value[i] = saved - eps;
      const double dn = eval_loss(module, x, target, loss);
      p->value[i] = saved;
      const double numeric = (up - dn) / (2.0 * eps);
      result.max_param_err =
          std::max(result.max_param_err, rel_error(p->grad[i], numeric));
    }
  }
  return result;
}

}  // namespace omniboost::nn
