"""Dense float64 arrays: the taped reference ops and the optimizer.

Values are numpy arrays shaped (channels, length), plus 0-d scalars for
losses. A Tensor pairs a value with a lazily allocated gradient buffer
that backward passes accumulate into with +=. Each taped operation
validates shapes eagerly, computes its forward result (through
adnet.kernels for the dilated convolution), and, when given a Tape,
records a pullback closure. Training does not use them: the model has
its own forward and backward (adnet.model), and the taped ops are the
generic reference that the tests hold it against.

adam_step updates one flat parameter vector from its gradient twin in
cache-sized chunks. An AdamState belongs to a single training loop and
must not be shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, InputError, UsageError


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

    def accumulate_grad(self, delta) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += delta

    def zero_grad(self) -> None:
        self.grad = None


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


def logistic(v: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-v)), as 1 / (1 + e) or e / (1 + e) by the sign of v
    with e = exp(-|v|), which never overflows."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1 / (1 + e), e / (1 + e))


def sigmoid(x: Tensor, tape: Tape | None = None) -> Tensor:
    y = logistic(x.value)
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
    if not np.all((m == 0.0) | (m == 1.0)):
        raise InputError("mask entries must be 0 or 1")
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


# elements per Adam chunk: its two 256 KiB temporaries stay in L2, where
# whole-vector temporaries of a default model (4 MB each) do not
ADAM_CHUNK = 32_768


@dataclass
class AdamState:
    """Moment vectors, twins of the flat parameter vector, plus step count."""

    lr: float
    beta1: float
    beta2: float
    epsilon: float
    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray
    # adam_step's temporaries, allocated by its first call and reused
    scratch: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


def init_adam(params, lr: float) -> AdamState:
    """Zero moments for params, whose flat holds every parameter."""
    return AdamState(lr=lr, beta1=0.9, beta2=0.999, epsilon=1e-8, step_count=0,
                     first_moment=np.zeros_like(params.flat),
                     second_moment=np.zeros_like(params.flat))


def adam_step(params, state: AdamState) -> None:
    """One bias-corrected Adam update of params.flat from params.grad, in
    place, one chunk at a time. Every operation is elementwise and keeps
    the order of the textbook update, so the chunking changes no bit."""
    p, g = params.flat, params.grad
    m, v = state.first_moment, state.second_moment
    if g is None:
        raise UsageError("adam_step() called before gradients were populated")
    if not p.shape == g.shape == m.shape == v.shape:
        raise ConfigError(f"parameters {p.shape}, gradients {g.shape} and moments "
                          f"{m.shape}, {v.shape} must have one shape")
    state.step_count += 1
    b1, b2 = state.beta1, state.beta2
    correct1 = 1.0 - b1 ** state.step_count
    correct2 = 1.0 - b2 ** state.step_count
    if state.scratch is None:
        state.scratch = np.empty((2, ADAM_CHUNK))
    for lo in range(0, p.size, ADAM_CHUNK):
        pc, gc = p[lo:lo + ADAM_CHUNK], g[lo:lo + ADAM_CHUNK]
        mc, vc = m[lo:lo + ADAM_CHUNK], v[lo:lo + ADAM_CHUNK]
        step, root = state.scratch[:, :pc.size]
        mc *= b1                                   # m = b1*m + (1-b1)*g
        mc += np.multiply(gc, 1.0 - b1, out=step)
        vc *= b2                                   # v = b2*v + (1-b2)*(g*g)
        np.multiply(gc, gc, out=step)
        vc += np.multiply(step, 1.0 - b2, out=step)
        np.divide(mc, correct1, out=step)          # p -= lr*(m/c1) / (sqrt(v/c2)+eps)
        step *= state.lr
        np.sqrt(np.divide(vc, correct2, out=root), out=root)
        root += state.epsilon
        pc -= np.divide(step, root, out=step)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.zero_grad()
