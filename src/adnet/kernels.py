"""The dilated convolution kernels, the hot loop of training.

One BLAS matmul per kernel tap over a zero-padded copy of the input.
Both kernels expect C-contiguous float64 arrays.
"""

import numpy as np


def backend():
    """Name of the kernel implementation; there is one, the numpy one."""
    return "python"


def conv1d_dilated_fwd(x, w, b, dilation):
    cin, t = x.shape
    cout, _, k = w.shape
    pad = (k // 2) * dilation
    xp = np.zeros((cin, t + 2 * pad))
    xp[:, pad:pad + t] = x
    y = np.empty((cout, t))
    y[:] = b[:, None]
    for j in range(k):
        y += w[:, :, j] @ xp[:, j * dilation:j * dilation + t]
    return y


def conv1d_dilated_bwd(x, w, gy, dilation):
    cin, t = x.shape
    cout, _, k = w.shape
    pad = (k // 2) * dilation
    xp = np.zeros((cin, t + 2 * pad))
    xp[:, pad:pad + t] = x
    gx = np.zeros((cin, t))
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
