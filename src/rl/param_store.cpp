#include "rl/param_store.h"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

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

void ParamStore::zero_grad() {
  ThreadRoleGuard coordinator(role_);
  std::fill(grad_.begin(), grad_.end(), 0.0);
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

void ParamStore::scale_grad(double factor) {
  ThreadRoleGuard coordinator(role_);
  for (double& g : grad_) g *= factor;
}

void ParamStore::save(std::ostream& os) const {
  ThreadRoleGuard coordinator(role_);
  os << "yoso-paramstore-v1 " << value_.size() << " " << adam_t_ << "\n";
  os.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < value_.size(); ++i)
    os << value_[i] << " " << adam_m_[i] << " " << adam_v_[i] << "\n";
}

void ParamStore::load(std::istream& is) {
  ThreadRoleGuard coordinator(role_);
  std::string magic;
  std::size_t n = 0;
  long long t = 0;
  if (!(is >> magic >> n >> t) || magic != "yoso-paramstore-v1")
    throw std::invalid_argument("ParamStore::load: bad header");
  if (n != value_.size())
    throw std::invalid_argument(
        "ParamStore::load: size mismatch (checkpoint " + std::to_string(n) +
        ", store " + std::to_string(value_.size()) + ")");
  std::vector<double> v(n), m(n), av(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> v[i] >> m[i] >> av[i]))
      throw std::invalid_argument("ParamStore::load: truncated at entry " +
                                  std::to_string(i));
  }
  value_ = std::move(v);
  adam_m_ = std::move(m);
  adam_v_ = std::move(av);
  adam_t_ = t;
  std::fill(grad_.begin(), grad_.end(), 0.0);
}

}  // namespace yoso
