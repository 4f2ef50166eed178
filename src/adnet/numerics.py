"""Dense float64 tensor operations with taped reverse-mode gradients.

Values are numpy arrays shaped (channels, length), plus 0-d scalars for
losses. A Tensor pairs a value with a lazily allocated gradient buffer
that backward passes accumulate into with +=. Each operation validates
shapes eagerly, computes its forward result (through adnet.kernels for
the dilated convolution), and, when given a Tape, records a pullback
closure. With tape=None the same functions run as plain forward
evaluation, which is all inference needs.

Forward evaluation over immutable parameters is thread-safe; a Tape and
an AdamState belong to a single training loop and must not be shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, UsageError


class Tensor:
    """A float64 array plus an accumulated gradient of the same shape.

    Model parameters are Tensors that outlive individual tapes; their
    gradients persist across backward calls until zero_grad().
    """

    __slots__ = ("value", "grad")

    def __init__(self, value):
        # asarray(order="C") keeps 0-d scalars 0-d, unlike ascontiguousarray
        self.value = np.asarray(value, dtype=np.float64, order="C")
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def accumulate_grad(self, delta) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += delta

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


class Tape:
    """Ordered pullback log of one recorded forward pass."""

    def __init__(self):
        self._steps: list[tuple[Tensor, Callable[[], None]]] = []

    def record(self, output: Tensor, pullback: Callable[[], None]) -> None:
        self._steps.append((output, pullback))

    def backward(self, root: Tensor) -> None:
        """Seed d(root)/d(root) = 1 and run pullbacks in reverse order,
        skipping those whose output no gradient reached.

        Leaf tensors (parameters, inputs) accumulate gradients across
        calls, so backward twice without zeroing doubles them. Op outputs
        are per-pass cotangent buffers and start every pass clean.
        """
        if not self._steps:
            raise UsageError("backward() called before any operation was recorded")
        if root.value.shape != ():
            raise UsageError(f"backward() needs a scalar root, got shape {root.value.shape}")
        for output, _ in self._steps:
            output.grad = None
        root.accumulate_grad(np.float64(1.0))
        for output, pullback in reversed(self._steps):
            if output.grad is not None:
                pullback()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def conv1d_dilated(x: Tensor, kernel: Tensor, bias: Tensor, dilation: int,
                   tape: Tape | None = None) -> Tensor:
    """Length-preserving dilated convolution over the temporal axis.

    Zero padding of (K//2)*dilation on each side keeps the output length
    equal to the input length for odd K.
    """
    xv, wv, bv = x.value, kernel.value, bias.value
    _require(xv.ndim == 2 and wv.ndim == 3 and bv.ndim == 1,
             "conv1d_dilated expects input (Cin,T), kernel (Cout,Cin,K), bias (Cout,)")
    cout, cin, k = wv.shape
    _require(xv.shape[0] == cin,
             f"kernel expects {cin} input channels, input has {xv.shape[0]}")
    _require(bv.shape[0] == cout, f"bias has {bv.shape[0]} entries, kernel emits {cout}")
    _require(k % 2 == 1, f"kernel width must be odd to preserve length, got {k}")
    _require(dilation >= 1 and dilation & (dilation - 1) == 0,
             f"dilation must be a power of two, got {dilation}")
    # looked up on the module at call time so perfbench/layers.py can wrap them
    out = Tensor(kernels.conv1d_dilated_fwd(xv, wv, bv, dilation))
    if tape is not None:
        def pullback():
            g = out.grad
            gx, gw, gb = kernels.conv1d_dilated_bwd(xv, wv, g, dilation)
            x.accumulate_grad(gx)
            kernel.accumulate_grad(gw)
            bias.accumulate_grad(gb)
        tape.record(out, pullback)
    return out


def pointwise_conv(x: Tensor, kernel: Tensor, bias: Tensor,
                   tape: Tape | None = None) -> Tensor:
    """1x1 convolution: a channel-mixing matmul applied at every position."""
    xv, wv, bv = x.value, kernel.value, bias.value
    _require(xv.ndim == 2 and wv.ndim == 2 and bv.ndim == 1,
             "pointwise_conv expects input (Cin,T), kernel (Cout,Cin), bias (Cout,)")
    _require(wv.shape[1] == xv.shape[0],
             f"kernel expects {wv.shape[1]} input channels, input has {xv.shape[0]}")
    _require(bv.shape[0] == wv.shape[0],
             f"bias has {bv.shape[0]} entries, kernel emits {wv.shape[0]}")
    out = Tensor(wv @ xv + bv[:, None])
    if tape is not None:
        def pullback():
            g = out.grad
            x.accumulate_grad(wv.T @ g)
            kernel.accumulate_grad(g @ xv.T)
            bias.accumulate_grad(g.sum(axis=1))
        tape.record(out, pullback)
    return out


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.maximum(x.value, 0.0))
    if tape is not None:
        def pullback():
            g = out.grad
            x.accumulate_grad(g * (x.value > 0.0))
        tape.record(out, pullback)
    return out


def sigmoid(x: Tensor, tape: Tape | None = None) -> Tensor:
    v = x.value
    # branch on sign so exp never overflows
    y = np.empty_like(v)
    pos = v >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    y[~pos] = ev / (1.0 + ev)
    out = Tensor(y)
    if tape is not None:
        def pullback():
            g = out.grad
            x.accumulate_grad(g * y * (1.0 - y))
        tape.record(out, pullback)
    return out


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _require(a.value.shape == b.value.shape,
             f"add() needs identical shapes, got {a.value.shape} and {b.value.shape}")
    out = Tensor(a.value + b.value)
    if tape is not None:
        def pullback():
            g = out.grad
            a.accumulate_grad(g)
            b.accumulate_grad(g)
        tape.record(out, pullback)
    return out


def mask_mul(x: Tensor, mask, tape: Tape | None = None) -> Tensor:
    """Zero every column where the binary mask is 0 (broadcast over channels)."""
    m = np.ascontiguousarray(mask, dtype=np.float64)
    _require(m.ndim == 1 and m.shape[0] == x.value.shape[-1],
             f"mask length {m.shape} does not match input length {x.value.shape[-1]}")
    _require(bool(np.all((m == 0.0) | (m == 1.0))), "mask entries must be 0 or 1")
    out = Tensor(x.value * m)
    if tape is not None:
        def pullback():
            g = out.grad
            x.accumulate_grad(g * m)
        tape.record(out, pullback)
    return out


def scalar_scale(x: Tensor, factor: float, tape: Tape | None = None) -> Tensor:
    _require(x.value.shape == (), "scalar_scale expects a scalar tensor")
    out = Tensor(x.value * factor)
    if tape is not None:
        def pullback():
            g = out.grad
            x.accumulate_grad(g * factor)
        tape.record(out, pullback)
    return out


def scalar_sum(terms: Sequence[Tensor], tape: Tape | None = None) -> Tensor:
    _require(len(terms) > 0, "scalar_sum needs at least one term")
    for term in terms:
        _require(term.value.shape == (), "scalar_sum expects scalar tensors")
    total = np.float64(0.0)
    for term in terms:
        total = total + term.value
    out = Tensor(total)
    if tape is not None:
        def pullback():
            g = out.grad
            for term in terms:
                term.accumulate_grad(g)
        tape.record(out, pullback)
    return out


@dataclass
class AdamState:
    """Moment buffers (one pair per parameter, same order) plus step count."""

    lr: float
    beta1: float
    beta2: float
    epsilon: float
    step_count: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]


def init_adam(params: Sequence[Tensor], lr: float, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> AdamState:
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon, step_count=0,
        first_moment=[np.zeros_like(p.value) for p in params],
        second_moment=[np.zeros_like(p.value) for p in params],
    )


def adam_step(params: Sequence[Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update, in place. Gradients are left as-is;
    the caller zeroes them between steps."""
    if len(params) != len(state.first_moment):
        raise ConfigError(
            f"optimizer state holds {len(state.first_moment)} buffers "
            f"for {len(params)} parameters")
    for p in params:
        if p.grad is None:
            raise UsageError("adam_step() called before gradients were populated")
        if p.grad.shape != p.value.shape:
            raise ConfigError(f"gradient shape {p.grad.shape} != value shape {p.value.shape}")
    state.step_count += 1
    correct1 = 1.0 - state.beta1 ** state.step_count
    correct2 = 1.0 - state.beta2 ** state.step_count
    for p, m, v in zip(params, state.first_moment, state.second_moment):
        g = p.grad
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.value -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.epsilon)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.zero_grad()
