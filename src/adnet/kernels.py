"""The dilated convolution kernels, the hot loop of training and inference.

One BLAS matmul per kernel tap over a zero-padded copy of the input.
Both kernels expect C-contiguous arrays of one dtype and compute in it:
float32 when scoring, float64 when training.

The forward kernel also runs a stack of B equal-width windows: x holds
their channels one window after another, (B*Cin, T), and y comes back the
same way, (B*Cout, T). Each row is padded on its own, so no tap reads
across from one window into the next, and each tap is one matmul over the
(B, Cin, T) view. numpy runs that as B separate (Cout x Cin) @ (Cin x T)
BLAS products, the very product a single window gets, so a window's
output is bit for bit the same in a stack of any size. One (Cin, B*T)
product per tap is no alternative: it measured slower (55-59 against 62
GFLOP/s), and BLAS rounds a wider product differently (by 1.1e-16 at
T=10 from B=3 on).
"""

import numpy as np


def backend():
    """Name of the kernel implementation; there is one, the numpy one."""
    return "python"


def conv1d_dilated_fwd(x, w, b, dilation):
    """y = b + sum over taps j of w[:, :, j] @ x shifted by j*dilation - pad,
    for each of the B windows whose channels x stacks as (B*Cin, T)."""
    rows, t = x.shape
    cout, cin, k = w.shape
    pad = (k // 2) * dilation
    xp = np.zeros((rows, t + 2 * pad), dtype=x.dtype)
    xp[:, pad:pad + t] = x
    xp = xp.reshape(rows // cin, cin, t + 2 * pad)
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))  # (K, Cout, Cin), read once
    y = np.empty((rows // cin, cout, t), dtype=x.dtype)
    y[:] = b[:, None]
    product = np.empty_like(y)
    for j in range(k):
        y += np.matmul(taps[j], xp[:, :, j * dilation:j * dilation + t], out=product)
    return y.reshape(-1, t)


def conv1d_dilated_bwd(x, w, gy, dilation):
    """Gradients of conv1d_dilated_fwd for one window x of shape (Cin, T)
    and its output gradient gy (Cout, T): (gx, gw, gb), of x's, w's and
    b's shapes, in x's dtype."""
    cin, t = x.shape
    cout, _, k = w.shape
    pad = (k // 2) * dilation
    xp = np.zeros((cin, t + 2 * pad), dtype=x.dtype)
    xp[:, pad:pad + t] = x
    gx = np.zeros((cin, t), dtype=x.dtype)
    gw = np.empty_like(w)
    for j in range(k):
        lo = j * dilation
        gw[:, :, j] = gy @ xp[:, lo:lo + t].T
        # tap j sends output column u to input column u + shift; what it
        # sends past either edge lands in the padding and is dropped. The
        # product stays whole: BLAS may round a column slice of it differently
        shift = lo - pad
        first, last = max(0, -shift), min(t, t - shift)
        if first < last:
            gx[:, first + shift:last + shift] += (w[:, :, j].T @ gy)[:, first:last]
    gb = gy.sum(axis=1)
    return gx, gw, gb
