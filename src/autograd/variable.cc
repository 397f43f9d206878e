#include "autograd/variable.h"

#include <unordered_map>
#include <unordered_set>

namespace gradgcl {

namespace internal {

void Node::AccumulateGrad(const Matrix& delta) {
  if (!grad_initialized) {
    AccumulateGrad(Matrix(delta));
    return;
  }
  GRADGCL_CHECK(delta.rows() == grad.rows() && delta.cols() == grad.cols());
  grad += delta;
}

void Node::AccumulateGrad(Matrix&& delta) {
  GRADGCL_CHECK(delta.rows() == value.rows() && delta.cols() == value.cols());
  if (!grad_initialized) {
    grad = std::move(delta);
    grad_initialized = true;
    grad_adopted = true;
    return;
  }
  grad += delta;
}

}  // namespace internal

Variable::Variable(Matrix value, bool requires_grad) {
  node_ = std::make_shared<internal::Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Matrix& Variable::value() const {
  GRADGCL_CHECK_MSG(defined(), "access on null Variable");
  return node_->value;
}

const Matrix& Variable::grad() const {
  GRADGCL_CHECK_MSG(defined(), "access on null Variable");
  if (!node_->grad_initialized) {
    node_->grad = Matrix::Zeros(node_->value.rows(), node_->value.cols());
    node_->grad_initialized = true;
  } else if (node_->grad_adopted) {
    // 0.0 + g maps -0.0 to +0.0 and keeps every other value's bits —
    // what the first add into a zero-filled buffer would have done.
    double* g = node_->grad.data();
    const int n = node_->grad.size();
    for (int i = 0; i < n; ++i) g[i] = 0.0 + g[i];
    node_->grad_adopted = false;
  }
  return node_->grad;
}

void Variable::set_grad(Matrix grad) {
  GRADGCL_CHECK_MSG(defined(), "set_grad on null Variable");
  GRADGCL_CHECK(grad.rows() == node_->value.rows() &&
                grad.cols() == node_->value.cols());
  node_->grad = std::move(grad);
  node_->grad_initialized = true;
  node_->grad_adopted = false;
}

void Variable::set_value(Matrix value) {
  GRADGCL_CHECK_MSG(defined(), "set_value on null Variable");
  GRADGCL_CHECK(value.rows() == node_->value.rows() &&
                value.cols() == node_->value.cols());
  node_->value = std::move(value);
}

bool Variable::requires_grad() const {
  GRADGCL_CHECK_MSG(defined(), "access on null Variable");
  return node_->requires_grad;
}

void Variable::ZeroGrad() {
  GRADGCL_CHECK_MSG(defined(), "ZeroGrad on null Variable");
  node_->grad_adopted = false;
  // In place when possible: parameters call this every step, and a
  // fresh Zeros would heap-allocate per parameter per step.
  if (node_->grad_initialized &&
      node_->grad.rows() == node_->value.rows() &&
      node_->grad.cols() == node_->value.cols()) {
    node_->grad.Fill(0.0);
    return;
  }
  node_->grad = Matrix::Zeros(node_->value.rows(), node_->value.cols());
  node_->grad_initialized = true;
}

Variable Variable::Detach() const {
  GRADGCL_CHECK_MSG(defined(), "Detach on null Variable");
  return Variable(node_->value, /*requires_grad=*/false);
}

double Variable::scalar() const {
  GRADGCL_CHECK_MSG(value().size() == 1, "scalar() on non-1x1 Variable");
  return value()(0, 0);
}

Variable Variable::MakeOp(Matrix value, std::vector<Variable> parents,
                          std::function<void(internal::Node&)> backward_fn) {
  Variable out(std::move(value), /*requires_grad=*/false);
  bool any_grad = false;
  for (const Variable& p : parents) {
    GRADGCL_CHECK_MSG(p.defined(), "op on null Variable");
    out.node_->parents.push_back(p.node());
    // A node needs gradients if any ancestor is a parameter: the parent
    // is one, or got a backward closure because one of its ancestors is.
    if (p.node()->requires_grad || p.node()->backward_fn) {
      any_grad = true;
    }
  }
  if (any_grad) {
    out.node_->backward_fn = std::move(backward_fn);
  }
  return out;
}

void Backward(const Variable& loss) {
  GRADGCL_CHECK_MSG(loss.defined(), "Backward on null Variable");
  GRADGCL_CHECK_MSG(loss.value().size() == 1,
                    "Backward requires a 1x1 scalar loss");

  using internal::Node;
  // Iterative post-order DFS to get a reverse topological order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(loss.node().get(), 0);
  visited.insert(loss.node().get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child++].get();
      if (visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  // Seed d(loss)/d(loss) = 1 and propagate in reverse topological
  // order (order is post-order, so iterate from the back).
  Node* root = loss.node().get();
  root->grad = Matrix(1, 1, 1.0);
  root->grad_initialized = true;
  root->grad_adopted = false;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && node->grad_initialized) {
      node->backward_fn(*node);
    }
  }
}

}  // namespace gradgcl
