// Fully-connected network with ReLU hidden activations, trained with minibatch
// SGD + momentum, MSE loss, and L2 regularization — exactly the recipe the paper
// uses for its content-aware accuracy prediction model (Section 4).
#ifndef SRC_NN_MLP_H_
#define SRC_NN_MLP_H_

#include <cstdint>
#include <vector>

#include "src/nn/matrix.h"

namespace litereconfig {

struct MlpConfig {
  // Layer widths including input and output, e.g. {260, 256, 256, 204}.
  std::vector<size_t> layer_dims;
  double learning_rate = 0.01;
  double momentum = 0.9;
  double l2 = 1e-4;
  size_t batch_size = 64;
  size_t epochs = 60;
  uint64_t seed = 1;
  // Stop early once the epoch's mean training loss improves by less than this
  // relative amount (0 disables early stopping).
  double early_stop_rel_tol = 1e-4;
};

class Mlp {
 public:
  // A fresh network: Xavier-uniform weights seeded by config.seed, zero biases.
  explicit Mlp(const MlpConfig& config);
  // A network with the given parameters, shaped as weights()/biases() return
  // them (how a trained model is restored).
  Mlp(const MlpConfig& config, std::vector<Matrix> weights,
      std::vector<std::vector<double>> biases);

  // X: n x input_dim, Y: n x output_dim. Returns the final epoch's mean MSE.
  double Train(const Matrix& x, const Matrix& y);

  std::vector<double> Predict(const std::vector<double>& input) const;

  // Approximate multiply-accumulate count of one forward pass (used by the
  // platform cost model to charge prediction latency consistently).
  size_t ForwardMacs() const;

  const MlpConfig& config() const { return config_; }

  // Parameter access for serialization.
  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<std::vector<double>>& biases() const { return biases_; }

 private:
  // The flat forward kernel shared by Train and Predict. Writes weight layer
  // l's output (ReLU on hidden layers, identity on the last) to
  // activations + offsets_[l]; the buffer holds offsets_.back() doubles.
  // Each z[o] starts at bias[o] and adds w(o, i) * a[i] in ascending i, the
  // plain dot-product order, but the loop runs i-outer over the input-major
  // weights_t_ so the o-loop vectorizes.
  void Forward(const double* input, double* activations) const;
  // Sizes offsets_ and weights_t_ from weights_ and fills weights_t_ by a
  // tiled transpose.
  void InitLayout();

  MlpConfig config_;
  // weights_[l] has shape (dims[l+1] x dims[l]); biases_[l] has dims[l+1].
  std::vector<Matrix> weights_;
  std::vector<std::vector<double>> biases_;
  // weights_t_[l] is weights_[l] input-major: entry i * dims[l+1] + o. The
  // SGD step updates this copy and refreshes weights_ from it.
  std::vector<std::vector<double>> weights_t_;
  // offsets_[l] is where weight layer l's outputs start in a flat activation
  // buffer; offsets_.back() is the buffer's size.
  std::vector<size_t> offsets_;
  // Momentum per weight (input-major) and bias; allocated by the first Train.
  std::vector<std::vector<double>> weight_velocity_;
  std::vector<std::vector<double>> bias_velocity_;
};

}  // namespace litereconfig

#endif  // SRC_NN_MLP_H_
