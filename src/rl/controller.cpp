#include "rl/controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "base/contract.h"
#include "linalg/kernels.h"
#include "obs/trace.h"
#include "rl/param_store.h"
#include "util/rng.h"

namespace yoso {

namespace {

/// out = tanh(in) as 2 / (1 + e^-2x) - 1 through the vectorised exp; the
/// forward pass and BPTT both use it, so BPTT differentiates exactly the
/// function that was sampled.
void tanh_into(std::span<const double> in, std::span<double> out) {
  kernels::exp_scale(in.data(), out.data(), in.size(), -2.0, 1.0);
  for (double& v : out) v = 2.0 / (1.0 + v) - 1.0;
}

/// dst (cols x rows) = src^T for src (rows x cols), both row-major.
void transpose_into(std::span<const double> src, std::size_t rows,
                    std::size_t cols, std::vector<double>& dst) {
  dst.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      dst[c * rows + r] = src[r * cols + c];
}

}  // namespace

LstmController::LstmController(std::vector<int> cardinalities,
                               ControllerOptions options)
    : cardinalities_(std::move(cardinalities)), options_(options) {
  if (cardinalities_.empty())
    throw std::invalid_argument("LstmController: empty action space");
  for (int c : cardinalities_)
    if (c < 1) throw std::invalid_argument("LstmController: bad cardinality");

  Rng rng(options_.seed);
  const auto h = static_cast<std::size_t>(options_.hidden_size);
  const auto e = static_cast<std::size_t>(options_.embed_size);
  w_x_ = store_.alloc(4 * h * e, rng);
  w_h_ = store_.alloc(4 * h * h, rng, 0.08);
  b_ = store_.alloc(4 * h, rng, 0.0);
  start_ = store_.alloc(e, rng);
  embed_.resize(cardinalities_.size());
  head_w_.resize(cardinalities_.size());
  head_b_.resize(cardinalities_.size());
  for (std::size_t t = 0; t < cardinalities_.size(); ++t) {
    if (t >= 1)
      embed_[t] = store_.alloc(
          static_cast<std::size_t>(cardinalities_[t - 1]) * e, rng);
    head_w_[t] = store_.alloc(
        static_cast<std::size_t>(cardinalities_[t]) * h, rng);
    head_b_[t] =
        store_.alloc(static_cast<std::size_t>(cardinalities_[t]), rng, 0.0);
  }

  steps_ = cardinalities_.size();
  hidden_ = h;
  embed_dim_ = e;
  head_offset_.resize(steps_);
  for (std::size_t t = 0; t < steps_; ++t) {
    head_offset_[t] = head_total_;
    head_total_ += static_cast<std::size_t>(cardinalities_[t]);
  }
  tanh_c_.assign(h, 0.0);
  start_version();
}

std::span<double> LstmController::x_row(std::size_t s, std::size_t r) {
  return std::span<double>(x_).subspan((s * (steps_ + 1) + r) * embed_dim_,
                                       embed_dim_);
}
std::span<double> LstmController::h_row(std::size_t s, std::size_t r) {
  return std::span<double>(h_).subspan((s * (steps_ + 1) + r) * hidden_,
                                       hidden_);
}
std::span<double> LstmController::c_row(std::size_t s, std::size_t r) {
  return std::span<double>(c_).subspan((s * (steps_ + 1) + r) * hidden_,
                                       hidden_);
}
std::span<double> LstmController::g_row(std::size_t s, std::size_t r) {
  return std::span<double>(g_).subspan(
      (s * (steps_ + 1) + r) * 4 * hidden_, 4 * hidden_);
}
std::span<double> LstmController::head_row(std::vector<double>& buf,
                                           std::size_t s, std::size_t t) {
  YOSO_DCHECK(t < steps_, "LstmController::head_row: step ", t);
  return std::span<double>(buf).subspan(s * head_total_ + head_offset_[t],
                                        static_cast<std::size_t>(
                                            cardinalities_[t]));
}

std::span<const double> LstmController::input(std::size_t t,
                                              int prev_action) const {
  YOSO_DCHECK(t < steps_, "LstmController::input: step ", t);
  if (t == 0) return store_.value(start_);
  YOSO_DCHECK(prev_action >= 0 && prev_action < cardinalities_[t - 1],
              "LstmController::input: action ", prev_action,
              " out of range at step ", t);
  return store_.value(embed_[t]).subspan(
      static_cast<std::size_t>(prev_action) * embed_dim_, embed_dim_);
}

void LstmController::start_version() {
  ++version_;
  slot_state_.clear();
  transpose_into(store_.value(w_x_), 4 * hidden_, embed_dim_, w_x_t_);
  transpose_into(store_.value(w_h_), 4 * hidden_, hidden_, w_h_t_);
}

void LstmController::cell_forward(std::span<const double> x,
                                  std::span<const double> h_prev,
                                  std::span<const double> c_prev,
                                  std::span<double> gates,
                                  std::span<double> c,
                                  std::span<double> h) const {
  const std::size_t hs = hidden_;
  const auto bv = store_.value(b_);
  std::copy(bv.begin(), bv.end(), gates.begin());
  kernels::gemv_t_acc(w_x_t_.data(), x.data(), gates.data(), embed_dim_,
                      4 * hs);
  if (!h_prev.empty())
    kernels::gemv_t_acc(w_h_t_.data(), h_prev.data(), gates.data(), hs,
                        4 * hs);
  cell_activate(gates, c_prev, c, h);
}

void LstmController::cell_activate(std::span<double> gates,
                                   std::span<const double> c_prev,
                                   std::span<double> c,
                                   std::span<double> h) const {
  const std::size_t hs = hidden_;
  // Activations through the vectorised exp: sigmoid(x) = 1 / (1 + e^-x)
  // and tanh(x) = 2 / (1 + e^-2x) - 1.
  kernels::exp_scale(gates.data(), gates.data(), 2 * hs, -1.0, 1.0);
  kernels::exp_scale(gates.data() + 2 * hs, gates.data() + 2 * hs, hs, -2.0,
                     1.0);
  kernels::exp_scale(gates.data() + 3 * hs, gates.data() + 3 * hs, hs, -1.0,
                     1.0);
  for (std::size_t i = 0; i < hs; ++i) {
    const double gi = 1.0 / (1.0 + gates[i]);
    const double gf = 1.0 / (1.0 + gates[hs + i]);
    const double gg = 2.0 / (1.0 + gates[2 * hs + i]) - 1.0;
    gates[i] = gi;
    gates[hs + i] = gf;
    gates[2 * hs + i] = gg;
    gates[3 * hs + i] = 1.0 / (1.0 + gates[3 * hs + i]);
    c[i] = gf * c_prev[i] + gi * gg;
  }
  tanh_into(c, h);
  for (std::size_t i = 0; i < hs; ++i) h[i] *= gates[3 * hs + i];
}

void LstmController::head_forward(ParamView head_w, ParamView head_b,
                                  std::span<const double> h,
                                  std::span<double> squash,
                                  std::span<double> z) const {
  kernels::gemv(store_.value(head_w).data(), h.data(), z.data(), z.size(),
                hidden_);
  const auto bv = store_.value(head_b);
  for (std::size_t k = 0; k < z.size(); ++k) {
    squash[k] = std::tanh((z[k] + bv[k]) / options_.temperature);
    z[k] = options_.tanh_constant * squash[k];
  }
}

void LstmController::sample_round(std::size_t k, Rng& rng,
                                  std::vector<Episode>& episodes) {
  YOSO_TRACE_SPAN("rl.sample");
  YOSO_REQUIRE(k >= 1, "LstmController::sample_round: empty round");
  const std::size_t s0 = slot_state_.size();
  const std::size_t slots = s0 + k;
  const std::size_t rows = steps_ + 1;
  slot_state_.resize(slots, SlotState::kSampled);
  if (actions_.size() < slots * steps_) {
    // Grow the round to `slots`; new rows are zero, which is what the h/c
    // row 0 and g/x row T invariants need.
    x_.resize(slots * rows * embed_dim_);
    h_.resize(slots * rows * hidden_);
    c_.resize(slots * rows * hidden_);
    g_.resize(slots * rows * 4 * hidden_);
    probs_.resize(slots * head_total_);
    squash_.resize(slots * head_total_);
    actions_.resize(slots * steps_);
    advantage_.resize(slots);
    entropy_weight_.resize(slots);
  }
  // One uniform per step, drawn in the order k sample() calls draw them.
  uniforms_.resize(k * steps_);
  for (double& u : uniforms_) u = rng.uniform();

  episodes.resize(k);
  for (std::size_t e = 0; e < k; ++e) {
    Episode& ep = episodes[e];
    ep.actions.resize(steps_);
    ep.log_prob = 0.0;
    ep.entropy = 0.0;
    ep.version = version_;
    ep.slot = s0 + e;
  }
  const auto bv = store_.value(b_);
  for (std::size_t t = 0; t < steps_; ++t) {
    for (std::size_t s = s0; s < slots; ++s) {
      const auto src =
          input(t, t == 0 ? 0 : actions_[s * steps_ + t - 1]);
      std::copy(src.begin(), src.end(), x_row(s, t).begin());
      std::copy(bv.begin(), bv.end(), g_row(s, t).begin());
    }
    // The round's gate products at step t: k rows at slot stride.
    kernels::gemm_acc(x_row(s0, t).data(), rows * embed_dim_, w_x_t_.data(),
                      g_row(s0, t).data(), rows * 4 * hidden_, k, embed_dim_,
                      4 * hidden_);
    if (t > 0)
      kernels::gemm_acc(h_row(s0, t).data(), rows * hidden_, w_h_t_.data(),
                        g_row(s0, t).data(), rows * 4 * hidden_, k, hidden_,
                        4 * hidden_);
    for (std::size_t e = 0; e < k; ++e) {
      const std::size_t s = s0 + e;
      cell_activate(g_row(s, t), c_row(s, t), c_row(s, t + 1),
                    h_row(s, t + 1));
      const auto p = head_row(probs_, s, t);
      head_forward(head_w_[t], head_b_[t], h_row(s, t + 1),
                   head_row(squash_, s, t), p);
      // Softmax in place, then the step's entropy.
      const double zmax = *std::max_element(p.begin(), p.end());
      double denom = 0.0;
      for (double& v : p) {
        v = std::exp(v - zmax);
        denom += v;
      }
      double ent = 0.0;
      for (double& v : p) {
        v /= denom;
        if (v > 0.0) ent -= v * std::log(v);
      }
      const std::size_t a =
          Rng::pick_weighted(p.data(), p.size(), uniforms_[e * steps_ + t]);
      Episode& ep = episodes[e];
      actions_[s * steps_ + t] = static_cast<int>(a);
      ep.actions[t] = static_cast<int>(a);
      ep.log_prob += std::log(std::max(p[a], 1e-300));
      ep.entropy += ent;
    }
  }
}

Episode LstmController::sample(Rng& rng) {
  std::vector<Episode> one;
  sample_round(1, rng, one);
  return std::move(one.front());
}

std::span<const double> LstmController::step_probs(const Episode& episode,
                                                   int t) const {
  YOSO_REQUIRE(episode.version == version_ &&
                   episode.slot < slot_state_.size() &&
                   slot_state_[episode.slot] == SlotState::kSampled,
               "LstmController::step_probs: episode is not a live, "
               "not yet fed-back sample of this policy version");
  YOSO_REQUIRE(t >= 0 && static_cast<std::size_t>(t) < steps_,
               "LstmController::step_probs: step ", t, " out of range");
  const auto ti = static_cast<std::size_t>(t);
  return {probs_.data() + episode.slot * head_total_ + head_offset_[ti],
          static_cast<std::size_t>(cardinalities_[ti])};
}

std::vector<int> LstmController::argmax_actions() {
  const std::size_t h = hidden_;
  // (h, c) of the previous and the current step ping-pong between two
  // halves of `state`; nothing of the round buffer is touched.
  std::vector<double> x(embed_dim_), gates(4 * h), state(4 * h, 0.0),
      squash(head_total_), z(head_total_);
  const std::span<double> sv(state);
  std::vector<int> actions(steps_);
  for (std::size_t t = 0; t < steps_; ++t) {
    const auto src = input(t, t == 0 ? 0 : actions[t - 1]);
    std::copy(src.begin(), src.end(), x.begin());
    const auto prev = sv.subspan((t % 2) * 2 * h, 2 * h);
    const auto next = sv.subspan(((t + 1) % 2) * 2 * h, 2 * h);
    cell_forward(x, t == 0 ? std::span<double>() : prev.first(h),
                 prev.last(h), gates, next.last(h), next.first(h));
    const auto zt = head_row(z, 0, t);
    head_forward(head_w_[t], head_b_[t], next.first(h),
                 head_row(squash, 0, t), zt);
    actions[t] = static_cast<int>(std::max_element(zt.begin(), zt.end()) -
                                  zt.begin());
  }
  return actions;
}

void LstmController::accumulate_gradient(const Episode& ep, double advantage,
                                         double entropy_weight) {
  YOSO_REQUIRE(ep.version == version_,
               "LstmController::accumulate_gradient: episode sampled at "
               "policy version ",
               ep.version, " but the controller is at version ", version_,
               " (an update() ran since; its gradient would be stale)");
  YOSO_REQUIRE(ep.slot < slot_state_.size() &&
                   slot_state_[ep.slot] == SlotState::kSampled,
               "LstmController::accumulate_gradient: episode already fed "
               "back this round");
  advantage_[ep.slot] = advantage;
  entropy_weight_[ep.slot] = entropy_weight;
  slot_state_[ep.slot] = SlotState::kFed;
}

void LstmController::backward(std::size_t s0, std::size_t s1) {
  YOSO_TRACE_SPAN("rl.backward");
  const std::size_t k = s1 - s0;
  const std::size_t h = hidden_;
  const std::size_t rows = steps_ + 1;
  const double tc_scale = options_.tanh_constant / options_.temperature;

  dh_.assign(k * h, 0.0);  // dL/dh_t from later steps, one row per slot
  dc_.assign(k * h, 0.0);  // dL/dc_t from later steps
  for (std::size_t t = steps_; t-- > 0;) {
    for (std::size_t s = s0; s < s1; ++s) {
      const auto p = head_row(probs_, s, t);  // becomes dL/du
      const auto sq = head_row(squash_, s, t);
      const auto a = static_cast<std::size_t>(actions_[s * steps_ + t]);
      const double advantage = advantage_[s];
      const double entropy_weight = entropy_weight_[s];
      // dL/dz with L = -advantage * log p(a) - entropy_weight * H, then
      // through z = C * tanh(u / T).
      double step_entropy = 0.0;
      for (double v : p)
        if (v > 0.0) step_entropy -= v * std::log(v);
      for (std::size_t j = 0; j < p.size(); ++j) {
        const double logp = p[j] > 0.0 ? std::log(p[j]) : -700.0;
        const double dz = advantage * (p[j] - (j == a ? 1.0 : 0.0)) +
                          entropy_weight * p[j] * (logp + step_entropy);
        p[j] = dz * tc_scale * (1.0 - sq[j] * sq[j]);
      }
    }
    kernels::gemm_acc(head_row(probs_, s0, t).data(), head_total_,
                      store_.value(head_w_[t]).data(), dh_.data(), h, k,
                      static_cast<std::size_t>(cardinalities_[t]), h);

    // LSTM cell backward; the gates row becomes dL/d(pre-activation).
    for (std::size_t e = 0; e < k; ++e) {
      const std::size_t s = s0 + e;
      const auto g = g_row(s, t);
      const auto c_prev = c_row(s, t);
      double* dh = dh_.data() + e * h;
      double* dc = dc_.data() + e * h;
      tanh_into(c_row(s, t + 1), tanh_c_);
      for (std::size_t i = 0; i < h; ++i) {
        const double gi = g[i], gf = g[h + i], gg = g[2 * h + i],
                     go = g[3 * h + i];
        const double tc = tanh_c_[i];
        const double dci = dc[i] + dh[i] * go * (1.0 - tc * tc);
        const double do_ = dh[i] * tc;
        g[i] = dci * gg * gi * (1.0 - gi);
        g[h + i] = dci * c_prev[i] * gf * (1.0 - gf);
        g[2 * h + i] = dci * gi * (1.0 - gg * gg);
        g[3 * h + i] = do_ * go * (1.0 - go);
        dc[i] = dci * gf;
      }
    }
    std::fill(dh_.begin(), dh_.end(), 0.0);
    if (t > 0)
      kernels::gemm_acc(g_row(s0, t).data(), rows * 4 * h,
                        store_.value(w_h_).data(), dh_.data(), h, k, 4 * h,
                        h);
  }
}

void LstmController::fold_round() {
  const std::size_t h = hidden_;
  const std::size_t e = embed_dim_;
  const std::size_t rows = steps_ + 1;
  std::size_t s0 = 0;
  while (s0 < slot_state_.size()) {
    if (slot_state_[s0] != SlotState::kFed) {
      ++s0;
      continue;
    }
    std::size_t s1 = s0;
    while (s1 < slot_state_.size() && slot_state_[s1] == SlotState::kFed)
      ++s1;
    backward(s0, s1);
    // The run's slots are contiguous, so its n = (s1 - s0)(T + 1) rows are
    // one matrix per cache.  g row t pairs with h row t = h_{t-1} and x row
    // t = x_t, so each weight gradient is one A^T B over every step column
    // of the run (row 0 of h and row T of g are zero).
    const std::size_t n = (s1 - s0) * rows;
    const double* g = g_.data() + s0 * rows * 4 * h;
    kernels::gemm_atb_acc(g, h_.data() + s0 * rows * h,
                          store_.grad(w_h_).data(), n, 4 * h, h);
    kernels::gemm_atb_acc(g, x_.data() + s0 * rows * e,
                          store_.grad(w_x_).data(), n, 4 * h, e);
    const auto gb = store_.grad(b_);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t i = 0; i < 4 * h; ++i) gb[i] += g[r * 4 * h + i];
    // dL/dx of every step column goes straight into the start vector or
    // the embedding row its input came from.  A slot's T inputs are T
    // distinct rows (the start vector, then one row of each step's
    // embedding), so they are gathered into dx_, take one T-row gemm_acc
    // and are scattered back: each row gets the chain one gemv_t_acc per
    // step would give it, and slots still accumulate in order.
    dx_.resize(steps_ * e);
    for (std::size_t s = s0; s < s1; ++s) {
      const int* acts = actions_.data() + s * steps_;
      auto input_grad = [&](std::size_t t) {
        return t == 0 ? store_.grad(start_)
                      : store_.grad(embed_[t]).subspan(
                            static_cast<std::size_t>(acts[t - 1]) * e, e);
      };
      for (std::size_t t = 0; t < steps_; ++t) {
        const auto src = input_grad(t);
        std::copy(src.begin(), src.end(), dx_.begin() + t * e);
      }
      kernels::gemm_acc(g_row(s, 0).data(), 4 * h, store_.value(w_x_).data(),
                        dx_.data(), e, steps_, 4 * h, e);
      for (std::size_t t = 0; t < steps_; ++t) {
        const auto row = std::span<const double>(dx_).subspan(t * e, e);
        std::copy(row.begin(), row.end(), input_grad(t).begin());
      }
    }
    // Heads: step t's matrix receives one (du, h_t) column per episode.
    for (std::size_t t = 0; t < steps_; ++t) {
      const auto gw = store_.grad(head_w_[t]);
      const auto ghb = store_.grad(head_b_[t]);
      for (std::size_t s = s0; s < s1; ++s) {
        const auto du = head_row(probs_, s, t);
        kernels::gemm_atb_acc(du.data(), h_row(s, t + 1).data(), gw.data(), 1,
                              du.size(), h);
        for (std::size_t k = 0; k < du.size(); ++k) ghb[k] += du[k];
      }
    }
    for (std::size_t s = s0; s < s1; ++s) slot_state_[s] = SlotState::kFolded;
    s0 = s1;
  }
}

std::span<const double> LstmController::gradient() {
  fold_round();
  return store_.grads();
}

void LstmController::update(double lr, double max_grad_norm) {
  YOSO_TRACE_SPAN("rl.adam");
  fold_round();
  const double norm = store_.grad_norm();
  store_.adam_step(lr, norm > max_grad_norm && norm > 0.0
                           ? max_grad_norm / norm
                           : 1.0);
  start_version();
}

}  // namespace yoso
