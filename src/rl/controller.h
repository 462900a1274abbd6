#pragma once
// LSTM-based RL controller (paper §III.C).
//
// The controller treats a candidate co-design as an action sequence
// lambda = (d_1..d_S, c_1..c_L): 40 DNN actions + 4 hardware actions, each
// with its own cardinality.  An LSTM with 120 hidden units samples actions
// autoregressively through per-step softmax heads; the previously generated
// action is embedded and fed as the next input (zero input at the first
// step).  Sampling logits use the ENAS-style temperature and tanh-constant
// squashing (§IV.C: temperature 1.1, tanh constant 2.5).
//
// REINFORCE with a moving-average baseline and an entropy bonus updates the
// parameters (Eq. 4); the optimiser is Adam (lr 0.0035 in the paper).
//
// The update unit is the round: every episode sampled since the last
// update() belongs to the current policy version and keeps its forward
// caches in the controller's round buffer.  sample_round(k) runs k episodes
// through the LSTM in lockstep, one time step at a time, so each gate
// product is one k-row kernels::gemm_acc over the weights instead of k
// matrix-vector products; sample() is the k = 1 round.  The uniforms are
// drawn up front in episode-major order, so the actions equal those of k
// sample() calls.  accumulate_gradient() only records the episode's
// advantage and entropy weight; update() (or gradient()) backprops every
// contiguous run of fed-back slots in lockstep through exactly the weights
// that sampled them, folds the weight gradients of all step columns with
// one GEMM per weight matrix, then takes one clipped Adam step and starts a
// new version.  Every kernel keeps each element's operation chain, so the
// results are bit-identical to running the episodes one by one.  An
// episode from an older version is rejected, so a stale gradient is a
// ContractViolation rather than a silent error.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rl/param_store.h"
#include "util/rng.h"

namespace yoso {

struct ControllerOptions {
  int hidden_size = 120;   ///< LSTM hidden units (paper: 120)
  int embed_size = 32;     ///< action-embedding width
  double temperature = 1.1;
  double tanh_constant = 2.5;
  std::uint64_t seed = 1;
};

/// One sampled action sequence.  Its forward caches live in the sampling
/// controller's round buffer (slot `slot`) until that controller's next
/// update(); the episode itself is a small handle.
struct Episode {
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  std::vector<int> actions;
  double log_prob = 0.0;  ///< sum over steps of log pi(a_t)
  double entropy = 0.0;   ///< sum over steps of H(pi_t)
  std::uint64_t version = 0;    ///< policy version that sampled it
  std::size_t slot = kNoSlot;   ///< round-buffer slot of its caches
};

class LstmController {
 public:
  /// `cardinalities`: the per-step action-space sizes (44 entries for the
  /// full co-design space).
  LstmController(std::vector<int> cardinalities, ControllerOptions options);

  const std::vector<int>& cardinalities() const { return cardinalities_; }
  int num_steps() const { return static_cast<int>(cardinalities_.size()); }
  std::size_t param_count() const { return store_.size(); }

  /// The policy version: set to 1 by the constructor and bumped by every
  /// update(); sample() stamps it on the episode.
  std::uint64_t version() const { return version_; }

  /// Samples k action sequences in lockstep under the current policy
  /// version into `episodes` (resized to k), keeping their caches for a
  /// later accumulate_gradient.  Draws k * num_steps() uniforms first, in
  /// episode-major order, so the episodes equal those of k sample() calls
  /// on the same Rng.  Each episode holds a round-buffer slot
  /// (~(T+1)(E+6H) doubles) until the next update(), so the buffer is
  /// sized by the largest round, like the live episodes it stands for.
  void sample_round(std::size_t k, Rng& rng, std::vector<Episode>& episodes);

  /// The k = 1 round.
  Episode sample(Rng& rng);

  /// Step t's softmax distribution for a sampled, not yet fed-back episode
  /// of the current version.
  std::span<const double> step_probs(const Episode& episode, int t) const;

  /// Greedy (argmax) decode — used to report the controller's current
  /// preferred design.
  std::vector<int> argmax_actions();

  /// Adds the REINFORCE gradient of
  ///   L = -(advantage) * log pi(a) - entropy_weight * H(pi)
  /// for one episode to the pending round.  Only records the two weights:
  /// the backward pass runs in lockstep for the round in gradient() or
  /// update().  ContractViolation when the episode was sampled before the
  /// last update() or has already been fed back.
  void accumulate_gradient(const Episode& episode, double advantage,
                           double entropy_weight);

  /// The pending gradient (every accumulated episode of this round, summed),
  /// in ParamStore order; what the next update() would clip and apply.
  std::span<const double> gradient();

  /// The parameters, in ParamStore alloc order (read-only).
  const ParamStore& params() const { return store_; }

  /// Applies one Adam step for the pending round and zeroes gradients.
  /// Gradients are clipped to `max_grad_norm`.  Starts a new policy
  /// version: episodes sampled before it can no longer be fed back.
  void update(double lr, double max_grad_norm = 5.0);

 private:
  enum class SlotState : std::uint8_t { kSampled, kFed, kFolded };

  /// Step t's input: the start vector at t = 0, else the embedding of the
  /// previous step's action.
  std::span<const double> input(std::size_t t, int prev_action) const;
  /// One LSTM step from (x, h_prev, c_prev): writes the activated gates
  /// (i, f, g, o; 4H), c and h.  An empty h_prev is the zero state.
  void cell_forward(std::span<const double> x, std::span<const double> h_prev,
                    std::span<const double> c_prev, std::span<double> gates,
                    std::span<double> c, std::span<double> h) const;
  /// The cell after its gate products: activates the pre-activations in
  /// `gates` in place and writes c = f c_prev + i g and h = o tanh(c).
  void cell_activate(std::span<double> gates, std::span<const double> c_prev,
                     std::span<double> c, std::span<double> h) const;
  /// One output head on h, u = head_w h + head_b: writes squash[k] =
  /// tanh(u_k / T) and the logits z[k] = C * squash[k].
  void head_forward(ParamView head_w, ParamView head_b,
                    std::span<const double> h, std::span<double> squash,
                    std::span<double> z) const;
  /// Backprops slots [s0, s1) in lockstep: overwrites their gate rows with
  /// dL/d(pre-activation) and their probs_ with dL/du.
  void backward(std::size_t s0, std::size_t s1);
  /// Backprops every contiguous run of fed, not yet folded slots and folds
  /// their step columns into the store's gradient.
  void fold_round();
  /// Empties the round (a new policy version) and rebuilds the transposed
  /// gate weights the forward pass reads.
  void start_version();

  // Round-buffer rows: slot s, row r in [0, T]; head_row is step t's
  // stretch of a concatenated-heads buffer (probs_, squash_ or scratch).
  std::span<double> x_row(std::size_t s, std::size_t r);
  std::span<double> h_row(std::size_t s, std::size_t r);
  std::span<double> c_row(std::size_t s, std::size_t r);
  std::span<double> g_row(std::size_t s, std::size_t r);
  std::span<double> head_row(std::vector<double>& buf, std::size_t s,
                             std::size_t t);

  std::vector<int> cardinalities_;
  ControllerOptions options_;
  ParamStore store_;

  // LSTM weights.
  ParamView w_x_;  // (4H, E)
  ParamView w_h_;  // (4H, H)
  ParamView b_;    // (4H)
  ParamView start_;  // (E) input at t = 0
  // Per-step action embeddings (card_{t-1} x E) for t >= 1.
  std::vector<ParamView> embed_;
  // Per-step output heads (card_t x H) + bias (card_t).
  std::vector<ParamView> head_w_;
  std::vector<ParamView> head_b_;

  std::size_t steps_ = 0;       // T
  std::size_t hidden_ = 0;      // H
  std::size_t embed_dim_ = 0;   // E
  std::vector<std::size_t> head_offset_;  // prefix sums of cardinalities
  std::size_t head_total_ = 0;

  std::uint64_t version_ = 0;
  // Transposed copies of w_x / w_h ((E, 4H) and (H, 4H)) so a gate product
  // is one unit-stride gemv_t_acc; scratch, rebuilt by start_version().
  std::vector<double> w_x_t_, w_h_t_;

  // Round buffer: one slot per episode sampled at the current version.
  // Each slot holds T + 1 rows per per-step cache so that row t pairs with
  // step t's inputs: x_ row t = x_t, h_ row t = h_{t-1} and c_ row t =
  // c_{t-1} (row 0 zero, so h_t / c_t sit in row t + 1), g_ row t = the
  // activated gates of step t, overwritten in place by dL/d(pre-activation)
  // when the episode is fed back (row T stays zero).  probs_ / squash_ hold
  // the concatenated heads; probs_ becomes dL/du on feedback.
  std::vector<SlotState> slot_state_;
  std::vector<double> x_, h_, c_, g_;
  std::vector<double> probs_, squash_;
  std::vector<int> actions_;
  // Per slot: the advantage and entropy weight it was fed back with.
  std::vector<double> advantage_, entropy_weight_;
  // Scratch: a round's uniforms (k x T); BPTT's dL/dh and dL/dc (k x H)
  // and tanh(c_t) (H); one slot's input gradients (T x E).
  std::vector<double> uniforms_;
  std::vector<double> dh_, dc_, tanh_c_, dx_;
};

}  // namespace yoso
