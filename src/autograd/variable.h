// Reverse-mode automatic differentiation on Matrix values.
//
// A Variable is a cheap handle (shared_ptr) to a tape node holding a
// value, an accumulated gradient, and a closure that propagates the
// node's gradient to its parents. Every op in autograd/ops.h builds a
// fresh node, so each forward pass constructs a new DAG; calling
// Backward() on a scalar output walks the DAG in reverse topological
// order. Parameter nodes (requires_grad = true, no parents) persist
// across steps and accumulate gradients until ZeroGrad().
//
// This mirrors the subset of torch.autograd the paper's training
// loops rely on, at laptop scale; gradcheck.h pins correctness of
// every op against central finite differences.

#ifndef GRADGCL_AUTOGRAD_VARIABLE_H_
#define GRADGCL_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace gradgcl {

namespace internal {

// Tape node. Users interact with Variable, never with Node directly.
struct Node {
  Matrix value;
  Matrix grad;           // same shape as value once backward touches it
  bool requires_grad = false;
  bool grad_initialized = false;
  // grad began as an adopted delta rather than 0.0 + delta, so it may
  // hold -0.0 where 0.0 + Σ deltas holds +0.0 (see AccumulateGrad).
  bool grad_adopted = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates this->grad into the parents' grads.
  std::function<void(Node&)> backward_fn;

  // Adds `delta` into this node's gradient accumulator. The first delta
  // is adopted — moved in, or copied from an lvalue — instead of added
  // to a zero-filled buffer; later deltas add in arrival order. The
  // adopted sum differs from 0.0 + Σ deltas only where a zero's sign
  // differs, and no backward closure divides by or compares a
  // gradient, so the sign never reaches a nonzero value; grad() turns
  // the zeros back to +0.0, which makes every gradient a caller reads
  // (grad(), the optimizer, the all-reduce) bit-equal to 0.0 + Σ deltas.
  void AccumulateGrad(const Matrix& delta);
  void AccumulateGrad(Matrix&& delta);
};

}  // namespace internal

// Differentiable matrix value; see file comment.
class Variable {
 public:
  // Creates an empty (null) variable.
  Variable() = default;

  // Wraps a constant or parameter value. Parameters (weights that an
  // optimiser updates) pass requires_grad = true.
  explicit Variable(Matrix value, bool requires_grad = false);

  // --- Value and gradient access ------------------------------------------

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const;
  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }

  // Gradient accumulated by Backward(); zero matrix if untouched.
  // Zeros read as +0.0, exactly as if every delta had been added to a
  // zero-filled buffer.
  const Matrix& grad() const;

  // Overwrites the accumulated gradient (shape-checked). Used by the
  // distributed trainer to install the all-reduced gradient before the
  // optimiser step.
  void set_grad(Matrix grad);

  // Overwrites the stored value, keeping the node identity (used by
  // optimisers so downstream graphs keep referring to the same node).
  void set_value(Matrix value);

  bool requires_grad() const;

  // Resets the accumulated gradient to zero.
  void ZeroGrad();

  // Detaches: returns a new constant Variable sharing this value but
  // cut off from the tape (no parents, requires_grad = false).
  Variable Detach() const;

  // Scalar convenience: value of a 1x1 variable.
  double scalar() const;

  // --- Graph construction (used by autograd/ops.cc) ------------------------

  // Builds an op node with the given output value, parents, and
  // backward closure. The closure receives the output node (with its
  // grad filled in) and must AccumulateGrad into each parent that
  // requires gradients, handing over freshly computed deltas with
  // std::move so the first one is adopted without a copy.
  static Variable MakeOp(Matrix value,
                         std::vector<Variable> parents,
                         std::function<void(internal::Node&)> backward_fn);

  std::shared_ptr<internal::Node> node() const { return node_; }

 private:
  std::shared_ptr<internal::Node> node_;
};

// Runs reverse-mode accumulation from `loss`, which must be a 1x1
// scalar. Gradients accumulate into every reachable node with
// requires_grad (directly or through its descendants).
void Backward(const Variable& loss);

}  // namespace gradgcl

#endif  // GRADGCL_AUTOGRAD_VARIABLE_H_
