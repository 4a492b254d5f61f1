#include "src/nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "src/util/rng.h"

namespace litereconfig {

// A note on the zero skips below. Biases, partial sums and gradient
// accumulators start at +0 and only ever have products added to them, and a
// sum of IEEE doubles is -0 only if every addend is, so none of them is ever
// -0. Adding a +-0 product (an exactly-zero activation or delta times a
// finite weight) therefore leaves it bit-for-bit unchanged, and skipping that
// addition changes no value.

namespace {

// dst (cols x rows) = src (rows x cols) transposed, both row-major, in square
// tiles so neither side is walked with a page-sized stride.
void Transpose(const double* src, size_t rows, size_t cols, double* dst) {
  constexpr size_t kTile = 16;
  for (size_t r0 = 0; r0 < rows; r0 += kTile) {
    size_t r1 = std::min(rows, r0 + kTile);
    for (size_t c0 = 0; c0 < cols; c0 += kTile) {
      size_t c1 = std::min(cols, c0 + kTile);
      for (size_t r = r0; r < r1; ++r) {
        for (size_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

}  // namespace

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  assert(config_.layer_dims.size() >= 2);
  for (size_t l = 0; l + 1 < config_.layer_dims.size(); ++l) {
    size_t in = config_.layer_dims[l];
    size_t out = config_.layer_dims[l + 1];
    weights_.push_back(Matrix::XavierUniform(out, in, HashKeys({config_.seed, l})));
    biases_.emplace_back(out, 0.0);
  }
  InitLayout();
}

Mlp::Mlp(const MlpConfig& config, std::vector<Matrix> weights,
         std::vector<std::vector<double>> biases)
    : config_(config), weights_(std::move(weights)), biases_(std::move(biases)) {
  assert(config_.layer_dims.size() >= 2 &&
         weights_.size() + 1 == config_.layer_dims.size() &&
         biases_.size() == weights_.size());
  for (size_t l = 0; l < weights_.size(); ++l) {
    assert(weights_[l].rows() == config_.layer_dims[l + 1] &&
           weights_[l].cols() == config_.layer_dims[l]);
    assert(biases_[l].size() == config_.layer_dims[l + 1]);
  }
  InitLayout();
}

void Mlp::InitLayout() {
  offsets_.push_back(0);
  for (const Matrix& w : weights_) {
    offsets_.push_back(offsets_.back() + w.rows());
    weights_t_.emplace_back(w.rows() * w.cols());
    Transpose(w.data().data(), w.rows(), w.cols(), weights_t_.back().data());
  }
}

// The entry is aligned to a cache line so the alignment of the loops below
// does not depend on how much code the linker places ahead of this function.
// Unaligned, a change elsewhere in the library that moved this entry from
// offset 0 to 32 within its cache line made perfbench single_tenant jobs 11%
// slower (job_ms_p50 32.6 -> 36.2 ms, six of six pairs) with this function
// unchanged.
[[gnu::aligned(64)]] void Mlp::Forward(const double* input, double* activations) const {
  size_t num_layers = weights_.size();
  const double* a = input;
  for (size_t l = 0; l < num_layers; ++l) {
    size_t in = config_.layer_dims[l];
    size_t out = config_.layer_dims[l + 1];
    double* z = activations + offsets_[l];
    std::copy(biases_[l].begin(), biases_[l].end(), z);
    const double* wt = weights_t_[l].data();
    for (size_t i = 0; i < in; ++i) {
      double ai = a[i];
      if (ai == 0.0) {
        continue;
      }
      const double* wcol = wt + i * out;
      for (size_t o = 0; o < out; ++o) {
        z[o] += wcol[o] * ai;
      }
    }
    // ReLU on hidden layers, identity on the output layer.
    if (l + 1 < num_layers) {
      for (size_t o = 0; o < out; ++o) {
        z[o] = std::max(0.0, z[o]);
      }
    }
    a = z;
  }
}

std::vector<double> Mlp::Predict(const std::vector<double>& input) const {
  assert(input.size() == config_.layer_dims.front());
  std::vector<double> activations(offsets_.back());
  Forward(input.data(), activations.data());
  return std::vector<double>(activations.begin() + offsets_[offsets_.size() - 2],
                             activations.end());
}

size_t Mlp::ForwardMacs() const {
  size_t macs = 0;
  for (size_t l = 0; l + 1 < config_.layer_dims.size(); ++l) {
    macs += config_.layer_dims[l] * config_.layer_dims[l + 1];
  }
  return macs;
}

double Mlp::Train(const Matrix& x, const Matrix& y) {
  assert(x.cols() == config_.layer_dims.front());
  assert(y.cols() == config_.layer_dims.back());
  assert(x.rows() == y.rows());
  size_t n = x.rows();
  if (n == 0) {
    return 0.0;
  }
  size_t num_layers = weights_.size();
  Pcg32 rng(HashKeys({config_.seed, 0x5d8ull}));
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Warm-start the output layer at the per-output target means: regression
  // converges from the mean rather than from zero, which matters at the small
  // epoch budgets the offline pass uses.
  {
    std::vector<double>& out_bias = biases_.back();
    std::fill(out_bias.begin(), out_bias.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = y.RowPtr(i);
      for (size_t o = 0; o < out_bias.size(); ++o) {
        out_bias[o] += row[o];
      }
    }
    for (double& b : out_bias) {
      b /= static_cast<double>(n);
    }
  }

  // Momentum state, zero until the first Train call and kept across calls
  // (input-major, like weights_t_). Models that are only loaded never pay
  // for it.
  if (weight_velocity_.empty()) {
    for (size_t l = 0; l < num_layers; ++l) {
      weight_velocity_.emplace_back(weights_t_[l].size(), 0.0);
      bias_velocity_.emplace_back(biases_[l].size(), 0.0);
    }
  }

  // Flat scratch for the whole pass. Sample s of a minibatch keeps the
  // activations and deltas (dL/dz) of weight layer l at s * total +
  // offsets_[l]; grad_w holds each layer's weight gradient input-major (entry
  // i * out + o) at weight_offsets[l], grad_b the bias gradients at
  // offsets_[l].
  const size_t total = offsets_.back();
  std::vector<size_t> weight_offsets(num_layers + 1, 0);
  for (size_t l = 0; l < num_layers; ++l) {
    weight_offsets[l + 1] =
        weight_offsets[l] + config_.layer_dims[l] * config_.layer_dims[l + 1];
  }
  const size_t max_batch = std::min(n, config_.batch_size);
  std::vector<double> activations(max_batch * total);
  std::vector<double> deltas(max_batch * total);
  std::vector<const double*> inputs(max_batch);
  std::vector<double> grad_w(weight_offsets.back());
  std::vector<double> grad_b(total);
  const size_t out_dim = config_.layer_dims.back();

  double prev_loss = -1.0;
  double epoch_loss = 0.0;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Fisher-Yates shuffle.
    for (size_t i = n; i-- > 1;) {
      size_t j = rng.UniformInt(static_cast<uint32_t>(i + 1));
      std::swap(order[i], order[j]);
    }
    epoch_loss = 0.0;
    for (size_t batch_start = 0; batch_start < n; batch_start += config_.batch_size) {
      size_t batch_end = std::min(n, batch_start + config_.batch_size);
      size_t batch = batch_end - batch_start;
      double batch_n = static_cast<double>(batch);
      for (size_t s = 0; s < batch; ++s) {
        size_t idx = order[batch_start + s];
        inputs[s] = x.RowPtr(idx);
        double* act = activations.data() + s * total;
        double* del = deltas.data() + s * total;
        Forward(inputs[s], act);
        // Output delta: dMSE/dz = 2 (pred - target) / out_dim.
        const double* pred = act + offsets_[num_layers - 1];
        double* out_delta = del + offsets_[num_layers - 1];
        const double* target = y.RowPtr(idx);
        for (size_t o = 0; o < out_dim; ++o) {
          double diff = pred[o] - target[o];
          out_delta[o] = 2.0 * diff / static_cast<double>(out_dim);
          epoch_loss += diff * diff / static_cast<double>(out_dim);
        }
        // Backpropagate.
        for (size_t l = num_layers - 1; l-- > 0;) {
          size_t dim = config_.layer_dims[l + 1];
          double* delta = del + offsets_[l];
          const double* delta_next = del + offsets_[l + 1];
          std::fill(delta, delta + dim, 0.0);
          const Matrix& w_next = weights_[l + 1];
          for (size_t o = 0; o < config_.layer_dims[l + 2]; ++o) {
            double d = delta_next[o];
            if (d == 0.0) {
              continue;
            }
            const double* wrow = w_next.RowPtr(o);
            for (size_t i = 0; i < dim; ++i) {
              delta[i] += d * wrow[i];
            }
          }
          // ReLU derivative.
          const double* z = act + offsets_[l];
          for (size_t i = 0; i < dim; ++i) {
            if (z[i] <= 0.0) {
              delta[i] = 0.0;
            }
          }
        }
      }
      // Minibatch gradients. Each weight's gradient adds its samples'
      // products in sample order, as a per-sample pass would, but one
      // input-major row of grad_w stays hot while the batch streams past it.
      // Exactly-zero activations are skipped.
      std::fill(grad_w.begin(), grad_w.end(), 0.0);
      std::fill(grad_b.begin(), grad_b.end(), 0.0);
      for (size_t l = 0; l < num_layers; ++l) {
        size_t in = config_.layer_dims[l];
        size_t out = config_.layer_dims[l + 1];
        double* gw = grad_w.data() + weight_offsets[l];
        for (size_t i = 0; i < in; ++i) {
          double* gcol = gw + i * out;
          for (size_t s = 0; s < batch; ++s) {
            double ai = l == 0 ? inputs[s][i]
                               : activations[s * total + offsets_[l - 1] + i];
            if (ai == 0.0) {
              continue;
            }
            const double* d = deltas.data() + s * total + offsets_[l];
            for (size_t o = 0; o < out; ++o) {
              gcol[o] += d[o] * ai;
            }
          }
        }
        double* gb = grad_b.data() + offsets_[l];
        for (size_t s = 0; s < batch; ++s) {
          const double* d = deltas.data() + s * total + offsets_[l];
          for (size_t o = 0; o < out; ++o) {
            gb[o] += d[o];
          }
        }
      }
      // SGD with momentum and L2 weight decay, on the input-major copy; the
      // row-major weights backprop reads are refreshed from it.
      for (size_t l = 0; l < num_layers; ++l) {
        std::vector<double>& wt = weights_t_[l];
        std::vector<double>& vt = weight_velocity_[l];
        const double* gw = grad_w.data() + weight_offsets[l];
        for (size_t k = 0; k < wt.size(); ++k) {
          double grad = gw[k] / batch_n + config_.l2 * wt[k];
          vt[k] = config_.momentum * vt[k] - config_.learning_rate * grad;
          wt[k] += vt[k];
        }
        const double* gb = grad_b.data() + offsets_[l];
        for (size_t o = 0; o < biases_[l].size(); ++o) {
          double grad = gb[o] / batch_n;
          bias_velocity_[l][o] =
              config_.momentum * bias_velocity_[l][o] - config_.learning_rate * grad;
          biases_[l][o] += bias_velocity_[l][o];
        }
        Transpose(wt.data(), config_.layer_dims[l], config_.layer_dims[l + 1],
                  weights_[l].data().data());
      }
    }
    epoch_loss /= static_cast<double>(n);
    if (config_.early_stop_rel_tol > 0.0 && prev_loss >= 0.0) {
      double rel = std::abs(prev_loss - epoch_loss) / std::max(prev_loss, 1e-12);
      if (rel < config_.early_stop_rel_tol) {
        break;
      }
    }
    prev_loss = epoch_loss;
  }
  return epoch_loss;
}

}  // namespace litereconfig
