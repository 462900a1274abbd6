#include "rl/param_store.h"

#include <cmath>

#include "linalg/kernels.h"
#include "util/rng.h"

namespace yoso {

ParamView ParamStore::alloc(std::size_t n, Rng& rng, double scale) {
  ThreadRoleGuard coordinator(role_);
  ParamView v{value_.size(), n};
  for (std::size_t i = 0; i < n; ++i)
    value_.push_back(rng.uniform(-scale, scale));
  grad_.resize(value_.size(), 0.0);
  adam_m_.resize(value_.size(), 0.0);
  adam_v_.resize(value_.size(), 0.0);
  return v;
}

void ParamStore::adam_step(double lr, double grad_scale, double beta1,
                           double beta2, double eps) {
  ThreadRoleGuard coordinator(role_);
  ++adam_t_;
  kernels::AdamCoeffs c;
  c.lr = lr;
  c.grad_scale = grad_scale;
  c.beta1 = beta1;
  c.beta2 = beta2;
  c.eps = eps;
  c.bc1 = 1.0 - std::pow(beta1, static_cast<double>(adam_t_));
  c.bc2 = 1.0 - std::pow(beta2, static_cast<double>(adam_t_));
  kernels::adam_update(value_.data(), grad_.data(), adam_m_.data(),
                       adam_v_.data(), value_.size(), c);
}

double ParamStore::grad_norm() const {
  ThreadRoleGuard coordinator(role_);
  double acc = 0.0;
  for (double g : grad_) acc += g * g;
  return std::sqrt(acc);
}

}  // namespace yoso
