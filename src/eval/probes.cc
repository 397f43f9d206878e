#include "eval/probes.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "autograd/ops.h"
#include "tensor/ops.h"
#include "train/optimizer.h"

namespace gradgcl {

namespace {

// Multiclass hinge loss (Crammer–Singer): mean_i max(0, 1 + max_{c≠y}
// z_c − z_y), built from autograd primitives with a one-hot trick.
Variable MulticlassHinge(const Variable& logits,
                         const std::vector<int>& labels) {
  const int n = logits.rows();
  const int c = logits.cols();
  // One-hot matrix of labels (constant).
  Matrix onehot(n, c, 0.0);
  for (int i = 0; i < n; ++i) onehot(i, labels[i]) = 1.0;
  // z_y per row.
  Variable zy = ag::SumRows(ag::Hadamard(logits, Variable(onehot)));  // n x 1
  // Margins: 1 + z_c − z_y for c != y, 0 on the label column.
  // Build (logits − zy·1ᵀ + 1) then zero the label column via mask.
  Matrix neg_onehot(n, c, 1.0);
  neg_onehot -= onehot;
  Variable spread = ag::Sub(logits, ag::MatMul(zy, Variable(Matrix(1, c, 1.0))));
  Variable margins =
      ag::Hadamard(ag::ScalarAdd(spread, 1.0), Variable(neg_onehot));
  // Hinge and average of per-sample max (approximated by the sum of
  // positive margins, the standard Weston–Watkins variant).
  return ag::Mean(ag::SumRows(ag::Relu(margins)));
}

}  // namespace

LinearProbe::LinearProbe(Matrix weight, Matrix bias)
    : weight_(std::move(weight)), bias_(std::move(bias)) {}

LinearProbe LinearProbe::Fit(const Matrix& features,
                             const std::vector<int>& labels, int num_classes,
                             const ProbeOptions& options) {
  GRADGCL_CHECK(features.rows() == static_cast<int>(labels.size()));
  GRADGCL_CHECK(features.rows() > 0 && num_classes >= 2);
  for (int y : labels) GRADGCL_CHECK(y >= 0 && y < num_classes);

  Rng rng(options.seed);
  Variable weight(Matrix::GlorotUniform(features.cols(), num_classes, rng),
                  /*requires_grad=*/true);
  Variable bias(Matrix::Zeros(1, num_classes), /*requires_grad=*/true);
  Adam optimizer({weight, bias}, options.lr, 0.9, 0.999, 1e-8,
                 options.weight_decay);
  const Variable x(features);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    optimizer.ZeroGrad();
    Variable logits = ag::Linear(x, weight, bias);
    Variable loss = options.kind == ProbeKind::kLogistic
                        ? ag::SoftmaxCrossEntropy(logits, labels)
                        : MulticlassHinge(logits, labels);
    Backward(loss);
    optimizer.Step();
  }
  return LinearProbe(weight.value(), bias.value());
}

Matrix LinearProbe::Scores(const Matrix& features) const {
  GRADGCL_CHECK(features.cols() == weight_.rows());
  return MatMulBias(features, weight_, bias_);
}

std::vector<int> LinearProbe::Predict(const Matrix& features) const {
  const Matrix scores = Scores(features);
  std::vector<int> predictions(scores.rows());
  for (int i = 0; i < scores.rows(); ++i) {
    int argmax = 0;
    for (int j = 1; j < scores.cols(); ++j) {
      if (scores(i, j) > scores(i, argmax)) argmax = j;
    }
    predictions[i] = argmax;
  }
  return predictions;
}

double Accuracy(const std::vector<int>& predictions,
                const std::vector<int>& labels) {
  GRADGCL_CHECK(predictions.size() == labels.size() && !labels.empty());
  int correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (predictions[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / labels.size();
}

Matrix ConfusionMatrix(const std::vector<int>& predictions,
                       const std::vector<int>& labels, int num_classes) {
  GRADGCL_CHECK(predictions.size() == labels.size());
  GRADGCL_CHECK(num_classes >= 2);
  Matrix confusion(num_classes, num_classes, 0.0);
  for (size_t i = 0; i < labels.size(); ++i) {
    GRADGCL_CHECK(labels[i] >= 0 && labels[i] < num_classes);
    GRADGCL_CHECK(predictions[i] >= 0 && predictions[i] < num_classes);
    confusion(labels[i], predictions[i]) += 1.0;
  }
  return confusion;
}

double MacroF1(const std::vector<int>& predictions,
               const std::vector<int>& labels, int num_classes) {
  const Matrix confusion = ConfusionMatrix(predictions, labels, num_classes);
  double total_f1 = 0.0;
  int counted = 0;
  for (int c = 0; c < num_classes; ++c) {
    const double tp = confusion(c, c);
    double fp = 0.0, fn = 0.0;
    for (int o = 0; o < num_classes; ++o) {
      if (o == c) continue;
      fp += confusion(o, c);
      fn += confusion(c, o);
    }
    if (tp + fp + fn == 0.0) continue;  // class absent everywhere
    total_f1 += 2.0 * tp / (2.0 * tp + fp + fn);
    ++counted;
  }
  return counted > 0 ? total_f1 / counted : 0.0;
}

double RocAuc(const std::vector<double>& scores,
              const std::vector<int>& labels) {
  GRADGCL_CHECK(scores.size() == labels.size() && !labels.empty());
  int num_pos = 0;
  for (int y : labels) {
    GRADGCL_CHECK_MSG(y == 0 || y == 1, "RocAuc needs binary labels");
    num_pos += y;
  }
  const int num_neg = static_cast<int>(labels.size()) - num_pos;
  if (num_pos == 0 || num_neg == 0) return 0.5;

  // Midrank-based AUC: (sum of positive ranks − n_pos(n_pos+1)/2) /
  // (n_pos · n_neg).
  std::vector<int> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] < scores[b]; });
  std::vector<double> ranks(scores.size());
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() &&
           scores[order[j + 1]] == scores[order[i]]) {
      ++j;
    }
    const double midrank = (static_cast<double>(i) + j) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = midrank;
    i = j + 1;
  }
  double pos_rank_sum = 0.0;
  for (size_t k = 0; k < labels.size(); ++k) {
    if (labels[k] == 1) pos_rank_sum += ranks[k];
  }
  return (pos_rank_sum - num_pos * (num_pos + 1.0) / 2.0) /
         (static_cast<double>(num_pos) * num_neg);
}

}  // namespace gradgcl
