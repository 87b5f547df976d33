#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace {

using namespace agua::nn;

Matrix random_matrix(std::size_t r, std::size_t c, agua::common::Rng& rng) {
  Matrix m(r, c);
  for (double& x : m.data()) x = rng.uniform(-1.0, 1.0);
  return m;
}

/// Scalar loss L = sum(forward(x) ∘ G) for a fixed G; its gradient w.r.t. the
/// output is exactly G, which lets us numerically check backward().
double loss_of(Module& module, const Matrix& input, const Matrix& g) {
  Matrix out = module.forward(input);
  out.hadamard(g);
  return out.sum();
}

void check_input_gradient(Module& module, Matrix input, double tolerance = 1e-5) {
  agua::common::Rng rng(99);
  const Matrix out = module.forward(input);
  const Matrix g = random_matrix(out.rows(), out.cols(), rng);
  module.zero_grad();
  module.forward(input);
  const Matrix analytic = module.backward(g);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < input.size(); ++i) {
    Matrix plus = input;
    Matrix minus = input;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    const double numeric = (loss_of(module, plus, g) - loss_of(module, minus, g)) / (2 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tolerance) << "input index " << i;
  }
}

void check_parameter_gradients(Module& module, const Matrix& input, double tolerance = 1e-5) {
  agua::common::Rng rng(101);
  const Matrix out = module.forward(input);
  const Matrix g = random_matrix(out.rows(), out.cols(), rng);
  module.zero_grad();
  module.forward(input);
  module.backward(g);
  const double eps = 1e-6;
  for (Parameter* p : module.parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const double saved = p->value.data()[i];
      p->value.data()[i] = saved + eps;
      const double plus = loss_of(module, input, g);
      p->value.data()[i] = saved - eps;
      const double minus = loss_of(module, input, g);
      p->value.data()[i] = saved;
      const double numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric, tolerance) << "param index " << i;
    }
  }
}

TEST(Layers, LinearForwardKnown) {
  agua::common::Rng rng(1);
  Linear layer(2, 1, rng);
  layer.weight().value = Matrix::from_rows({{2.0}, {3.0}});
  layer.bias().value = Matrix::row_vector({0.5});
  const Matrix out = layer.forward(Matrix::row_vector({1.0, 1.0}));
  EXPECT_DOUBLE_EQ(out.at(0, 0), 5.5);
}

TEST(Layers, LinearGradientsNumericallyCorrect) {
  agua::common::Rng rng(2);
  Linear layer(4, 3, rng);
  const Matrix input = random_matrix(5, 4, rng);
  check_input_gradient(layer, input);
  check_parameter_gradients(layer, input);
}

TEST(Layers, ReluForwardAndGradient) {
  ReLU relu;
  const Matrix out = relu.forward(Matrix::row_vector({-1.0, 0.0, 2.0}));
  EXPECT_DOUBLE_EQ(out.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.at(0, 2), 2.0);
  agua::common::Rng rng(3);
  // Keep inputs away from the kink at 0 for the finite-difference check.
  Matrix input = random_matrix(3, 4, rng);
  input.apply([](double x) { return x + (x >= 0 ? 0.5 : -0.5); });
  check_input_gradient(relu, input);
}

TEST(Layers, TanhGradient) {
  Tanh tanh_layer;
  agua::common::Rng rng(4);
  check_input_gradient(tanh_layer, random_matrix(3, 4, rng));
}

TEST(Layers, LayerNormNormalizesRows) {
  LayerNorm norm(4);
  const Matrix out = norm.forward(Matrix::row_vector({1.0, 2.0, 3.0, 4.0}));
  double mean = 0.0;
  for (std::size_t c = 0; c < 4; ++c) mean += out.at(0, c);
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-9);
  double var = 0.0;
  for (std::size_t c = 0; c < 4; ++c) var += out.at(0, c) * out.at(0, c);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-4);
}

TEST(Layers, LayerNormGradientsNumericallyCorrect) {
  LayerNorm norm(5);
  agua::common::Rng rng(5);
  // Give gamma/beta non-trivial values so their gradients are exercised.
  for (Parameter* p : norm.parameters()) {
    for (double& x : p->value.data()) x += rng.uniform(-0.3, 0.3);
  }
  const Matrix input = random_matrix(3, 5, rng);
  check_input_gradient(norm, input, 1e-4);
  check_parameter_gradients(norm, input, 1e-4);
}

TEST(Layers, SequentialComposesAndBackprops) {
  agua::common::Rng rng(6);
  auto net = make_concept_mapping_net(4, 8, 6, rng);
  const Matrix input = random_matrix(3, 4, rng);
  check_input_gradient(*net, input, 1e-4);
  check_parameter_gradients(*net, input, 1e-4);
}

TEST(Layers, MlpShape) {
  agua::common::Rng rng(7);
  auto net = make_mlp(10, 16, 3, rng);
  const Matrix out = net->forward(Matrix(5, 10, 0.1));
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 3u);
}

TEST(Layers, SaveLoadRoundTrip) {
  agua::common::Rng rng(8);
  auto net = make_concept_mapping_net(4, 6, 5, rng);
  const Matrix input = random_matrix(2, 4, rng);
  const Matrix before = net->forward(input);

  std::stringstream stream;
  agua::common::BinaryWriter w(stream);
  net->save(w);

  agua::common::Rng rng2(99);  // different init
  auto loaded = make_concept_mapping_net(4, 6, 5, rng2);
  agua::common::BinaryReader r(stream);
  loaded->load(r);
  const Matrix after = loaded->forward(input);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before.data()[i], after.data()[i]);
  }
}

TEST(Layers, ZeroGradClearsAccumulation) {
  agua::common::Rng rng(9);
  Linear layer(3, 2, rng);
  const Matrix input = random_matrix(2, 3, rng);
  layer.forward(input);
  layer.backward(Matrix(2, 2, 1.0));
  EXPECT_GT(layer.weight().grad.abs_sum(), 0.0);
  layer.zero_grad();
  EXPECT_DOUBLE_EQ(layer.weight().grad.abs_sum(), 0.0);
}

// ---------------------------------------------------------------------------
// infer() is each layer's one arithmetic; forward() is infer() plus what
// backward() needs, so the two must agree to the bit and infer() must leave
// the training caches alone.

/// Random rows with an exact +0.0 or -0.0 in every third slot: the ReLU kink,
/// tanh(-0.0) and the products' zero skip all see them.
Matrix input_with_zeros(std::size_t rows, std::size_t cols, agua::common::Rng& rng) {
  Matrix m = random_matrix(rows, cols, rng);
  for (std::size_t i = 0; i < m.size(); i += 3) m.data()[i] = (i / 3) % 2 == 0 ? 0.0 : -0.0;
  return m;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

struct LayerCase {
  const char* name;
  std::unique_ptr<Module> module;
};

/// Every layer type, the nets built from them, and PolicyNetwork's topology
/// (embedding net Linear -> ReLU -> Linear -> Tanh, then a Linear head). All
/// take 6-wide rows.
std::vector<LayerCase> every_layer(agua::common::Rng& rng) {
  std::vector<LayerCase> cases;
  cases.push_back({"Linear", std::make_unique<Linear>(6, 4, rng)});
  cases.push_back({"ReLU", std::make_unique<ReLU>()});
  cases.push_back({"Tanh", std::make_unique<Tanh>()});
  auto norm = std::make_unique<LayerNorm>(6);
  for (Parameter* p : norm->parameters()) {
    for (double& x : p->value.data()) x += rng.uniform(-0.3, 0.3);
  }
  cases.push_back({"LayerNorm", std::move(norm)});
  cases.push_back({"Sequential (make_mlp)", make_mlp(6, 8, 3, rng)});
  cases.push_back({"concept-mapping net", make_concept_mapping_net(6, 8, 9, rng)});
  auto policy = std::make_unique<Sequential>();
  policy->add(std::make_unique<Linear>(6, 8, rng));
  policy->add(std::make_unique<ReLU>());
  policy->add(std::make_unique<Linear>(8, 5, rng));
  policy->add(std::make_unique<Tanh>());
  policy->add(std::make_unique<Linear>(5, 3, rng));
  cases.push_back({"policy net", std::move(policy)});
  return cases;
}

TEST(Layers, InferEqualsForwardBitwise) {
  agua::common::Rng rng(10);
  for (LayerCase& c : every_layer(rng)) {
    SCOPED_TRACE(c.name);
    const Matrix input = input_with_zeros(5, 6, rng);
    const Module& frozen = *c.module;
    const Matrix inferred = frozen.infer(input);
    EXPECT_TRUE(bitwise_equal(inferred, c.module->forward(input)));
    // And a second infer after the forward: forward's caches do not feed it.
    EXPECT_TRUE(bitwise_equal(inferred, frozen.infer(input)));
  }
}

TEST(Layers, InferBetweenForwardAndBackwardLeavesGradientsUnchanged) {
  agua::common::Rng rng(11);
  for (LayerCase& c : every_layer(rng)) {
    SCOPED_TRACE(c.name);
    Module& module = *c.module;
    const Matrix input = input_with_zeros(4, 6, rng);
    const Matrix other = input_with_zeros(7, 6, rng);  // another shape, too
    const Matrix out = module.forward(input);
    const Matrix grad_out = random_matrix(out.rows(), out.cols(), rng);

    module.zero_grad();
    module.forward(input);
    const Matrix grad_in = module.backward(grad_out);
    std::vector<Matrix> grads;
    for (Parameter* p : module.parameters()) grads.push_back(p->grad);

    module.zero_grad();
    module.forward(input);
    module.infer(other);
    EXPECT_TRUE(bitwise_equal(grad_in, module.backward(grad_out)));
    const std::vector<Parameter*> params = module.parameters();
    ASSERT_EQ(params.size(), grads.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(grads[i], params[i]->grad)) << "parameter " << i;
    }
  }
}

}  // namespace
