"""Tour the reverse-mode autodiff core under the model.

Builds a two-layer network by hand from the tensor primitives, runs a
backward pass, verifies every gradient against central finite
differences, and pokes the guard rails (double backward, fully masked
softmax).
"""

import numpy as np

from scriptsum import Tensor, backward, grad_check, no_grad
from scriptsum.errors import NumericsError, StateError
from scriptsum.tensor import (
    add,
    cross_entropy,
    layernorm,
    matmul,
    relu,
    softmax_masked,
)

rng = np.random.default_rng(0)

# a small classifier: x -> relu(x W1 + b1) -> layernorm -> logits
x = Tensor(rng.standard_normal((6, 8)))
w1 = Tensor(rng.standard_normal((8, 16)) * 0.3, requires_grad=True)
b1 = Tensor(np.zeros(16), requires_grad=True)
gain = Tensor(np.ones(16), requires_grad=True)
bias = Tensor(np.zeros(16), requires_grad=True)
w2 = Tensor(rng.standard_normal((16, 4)) * 0.3, requires_grad=True)
targets = rng.integers(0, 4, 6)


def forward():
    h = relu(add(matmul(x, w1), b1))
    h = layernorm(h, gain, bias)
    return cross_entropy(matmul(h, w2), targets)


loss = forward()
backward(loss)
print(f"loss {float(loss.data):.4f}")
print("gradient norms after backward:")
for name, p in (("w1", w1), ("b1", b1), ("gain", gain), ("bias", bias), ("w2", w2)):
    print(f"  {name:<5} |grad| = {np.linalg.norm(p.grad):.4f}")

# the same function checked against finite differences
for p in (w1, b1, gain, bias, w2):
    p.grad = None
report = grad_check(lambda *_: forward(), [w1, b1, gain, bias, w2])
print(f"\ngrad check: passed={report.passed}, max rel error {report.max_rel_error:.2e}")

# backward consumes the graph; a second call is a usage bug, not silence
try:
    backward(loss)
except StateError as exc:
    print(f"\ndouble backward raises: {exc}")

# a fully masked attention row cannot be normalized; fail loudly
neg_inf = np.full((2, 3), -1e9)
try:
    softmax_masked(Tensor(rng.standard_normal((2, 3))), additive_mask=neg_inf)
except NumericsError as exc:
    print(f"fully masked softmax raises: {exc}")

# no_grad suppresses graph building for inference-speed paths
with no_grad():
    silent = forward()
assert silent.grad is None
print(f"\nunder no_grad the loss is plain data: parents={len(silent._parents)}")
