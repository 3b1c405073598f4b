"""The numpy forms of the compiled library's entries (_tracker.c).

close_group, spectrum_product and levinson, three of the library's four
entries, take the parameters of _tracker.Kernel's methods and make the
library's IEEE operations in its order, a row group's rows in lockstep, so
they give its bits on every CPU; normals, the fourth, is numpy's Generator
itself, whose draws the library makes bit for bit.  _tracker.load() returns this module where the library
cannot be built.  The closed loop then takes about 55 times the library's
time, and the solve 15-20 times: numpy builds each sin and cos pair from
about 70 small array operations, and each FFT from its butterflies.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import rng

_BLOCK = 128  # samples per block of the tracker history, or all nt taps when fewer
_CLOSURE_STEPS = 8  # hard cap on Halley steps per sample
_CLOSURE_TOL = 1e-13  # stop threshold on the error predicted after a step (rad)


# The constants of _tracker.c's sin_cos, FreeBSD msun's: the reduction by
# pi/2 in three parts (_PIO2_1 and _PIO2_2 have 33 bits, so their products
# with fn are exact for |fn| < 2^20) and the coefficients of __kernel_sin
# and __kernel_cos.  0-d arrays, which a ufunc takes faster than floats.
_SHIFT = np.array(6755399441055744.0)  # 0x1.8p52: (x + _SHIFT) - _SHIFT rounds x to nearest
_INVPIO2 = np.array(0.6366197723675814)
_PIO2_1 = np.array(1.5707963267341256)
_PIO2_2 = np.array(6.077100506303966e-11)
_PIO2_2T = np.array(2.0222662487959506e-21)
_S1, _S2, _S3, _S4, _S5, _S6 = map(np.array, (
    -0.16666666666666632, 0.00833333333332249, -0.0001984126982985795,
    2.7557313707070068e-06, -2.5050760253406863e-08, 1.58969099521155e-10))
_C1, _C2, _C3, _C4, _C5, _C6 = map(np.array, (
    0.0416666666666666, -0.001388888888887411, 2.480158728947673e-05,
    -2.7557314351390663e-07, 2.087572321298175e-09, -1.1359647557788195e-11))
_ZERO, _HALF, _ONE, _MINUS_ONE, _TWO, _QUARTER, _FOUR, _SIX = map(
    np.array, (0.0, 0.5, 1.0, -1.0, 2.0, 0.25, 4.0, 6.0))


def _sincos(x):
    """(sin x, cos x) of a float array, the numpy form of _tracker.c's
    sin_cos: its IEEE operations in its order, so its bits."""
    fn = (x * _INVPIO2 + _SHIFT) - _SHIFT
    t, u = x - fn * _PIO2_1, fn * _PIO2_2
    r = t - u
    w = fn * _PIO2_2T - ((t - r) - u)
    y0 = r - w
    y1 = (r - y0) - w
    z = y0 * y0
    zz = z * z
    rs = (_S2 + z * (_S3 + z * _S4)) + z * zz * (_S5 + z * _S6)
    v = z * y0
    s = y0 - ((z * (_HALF * y1 - v * rs) - y1) - v * _S1)
    rc = z * (_C1 + z * (_C2 + z * _C3)) + zz * zz * (_C4 + z * (_C5 + z * _C6))
    hz = _HALF * z
    wc = _ONE - hz
    c = wc + (((_ONE - wc) - hz) + (z * rc - y0 * y1))
    m4 = fn - _FOUR * ((fn * _QUARTER + _SHIFT) - _SHIFT)
    # the quadrant m4, in -2 .. 2, swaps the two where odd and sets their
    # signs as the kernel's tests |m4 -+ 1/2| > 1 do; a NaN m4 passes none
    mm = m4 * m4
    odd = mm == _ONE
    s, c = np.where(odd, c, s), np.where(odd, s, c)
    np.negative(s, out=s, where=mm > m4)  # m4 = -2, -1 or 2
    np.negative(c, out=c, where=mm > -m4)  # m4 = -2, 1 or 2
    return s, c


def _halley_step(k, lx, ly, c, e, stop, sin_cos):
    """(e, stop) after one step of _tracker.c's halley_step, all rows at
    once, with sin_cos = _sincos(e)."""
    s, co = sin_cos
    ls, lc = s * lx + co * ly, co * lx - s * ly
    fp = lc + k
    rt = (e * k + ls - c) / fp
    h = ls / (_TWO * fp)
    den = _ONE + rt * h
    step = np.divide(rt, den, out=rt, where=den > _ZERO)  # else Newton's r, no quotient made
    a = np.abs(step)
    err = (np.abs(lc / (_SIX * fp)) + h * h) * (a * a * a)
    clipped = np.maximum(np.minimum(step, _ONE), _MINUS_ONE)  # both let a NaN through
    return e - np.where(stop, _ZERO, clipped), stop | ((err < _CLOSURE_TOL) & (a <= _ONE))


def _track_block(j0, far, taps, twoa, phibar, x0, y0, e, rec, phip):
    """Close samples j0 .. j0 + n - 1 of a row group, given their far history
    far, the inverse FFT's (n, rows) tile: the numpy form of _tracker.c's
    track_block, all rows in lockstep, with its operations, so its bits.

    The group's (rows, m) phibar, x0 (None for squeezed_z) and y0, the
    cell's taps, lag 0 first, and each row's tracking error e, carried from
    block to block; a block writes its records into rec and its tracker
    outputs into phip.  A sample's first Halley step reads the sin e and
    cos e that the last record made at the same e, where the kernel makes
    them again.
    """
    (n, rows), l0 = far.shape, taps[0]
    k = np.array(1.0 - l0)
    terms = np.zeros((n + 1, rows))  # row 0 stays 0.0, where each lag sum starts
    cols = slice(j0, j0 + n)
    pb = phibar[:, cols].T
    if x0 is None:  # X = 1, Y = 0 and the record offset z = y0/2|a|
        x, y = np.ones((n, rows)), np.zeros((n, rows))
        z = y0[:, cols].T / twoa
        r0 = pb + z
        cb = k * pb - l0 * z - far
    else:
        x = x0[:, cols].T / twoa + 1.0
        y = y0[:, cols].T / twoa
        r0 = pb
        cb = k * pb - far
    lxs, lys = l0 * x, l0 * y
    tile = np.empty((n, rows))
    u = e.copy()
    sin_cos = _sincos(u)
    for i in range(n):
        # an accumulate adds in order, never pairwise or through BLAS
        np.multiply(taps[i:0:-1, None], tile[:i], out=terms[1: i + 1])  # lags i .. 1
        c = cb[i] - np.add.accumulate(terms[: i + 1], axis=0)[-1]
        if l0 == 0.0:
            u = c  # the closure is explicit
        else:
            stop = np.zeros(rows, bool)
            for step_index in range(_CLOSURE_STEPS):
                if step_index:
                    sin_cos = _sincos(u)
                u, stop = _halley_step(k, lxs[i], lys[i], c, u, stop, sin_cos)
                if np.count_nonzero(stop) == rows:
                    break
        phip[:, j0 + i] = pb[i] - u
        s, co = sin_cos = _sincos(u)
        tile[i] = r0[i] + ((s * x[i] + co * y[i]) - u)
    rec[:, cols] = tile.T
    e[:] = u


@cache
def _twiddles(n):
    """_tracker.c's twiddles: W^k = exp(-i pi k/n), k < n, as (2, n) planes
    (cos, -sin), from _sincos."""
    s, c = _sincos(np.arange(n) * (np.pi / n))
    tw = np.stack([c, -s])
    tw.flags.writeable = False
    return tw


def _fft(z, inverse=False):
    """_tracker.c's fft of z, (n, 2, rows) planes: each row's DFT, or its
    unnormalised inverse on the swapped planes, by its Stockham stages."""
    n, _, rows = z.shape
    z = z[:, ::-1] if inverse else z
    for s in (1 << t for t in range(n.bit_length() - 1)):
        half = n // (2 * s)
        (ur, ui), (vr, vi) = z.reshape(2, half, s, 2, rows).transpose(0, 3, 1, 2, 4)
        wr, wi = _twiddles(n)[:, : n: 2 * s, None, None]
        dr, di = ur - vr, ui - vi
        z = np.stack([np.stack([ur + vr, ui + vi], 2),
                      np.stack([dr * wr - di * wi, dr * wi + di * wr], 2)], 1).reshape(n, 2, rows)
    return z[:, ::-1] if inverse else z


def _real_fft(a, inverse=False):
    """The far history's real FFT in _tracker.c: the (n + 1, 2, rows)
    spectra of the real rows of a, (2n, rows), by fft and split, or,
    inverse, 2n times the inverse real FFT, (2n, rows), of the spectra a by
    unsplit and fft."""
    n, rows = (a.shape[0] - 1 if inverse else a.shape[0] // 2), a.shape[-1]
    z = a if inverse else _fft(a.reshape(n, 2, rows))
    h, pairs = n // 2, n - 1 - n // 2  # the k <= n/2, and the k < n/2
    (ar, ai), (cr, ci) = z[1: h + 1].transpose(1, 0, 2), z[n - 1: n - h - 1: -1].transpose(1, 0, 2)
    wr, wi = _twiddles(n)[:, 1: h + 1, None]
    out = np.zeros((n if inverse else n + 1, 2, rows))
    if inverse:  # unsplit
        er, ei, dr, di = ar + cr, ai - ci, ar - cr, ai + ci
        odr, odi = dr * wr + di * wi, di * wr - dr * wi
        head, tail = (er - odi, ei + odr), (er + odi, odr - ei)
        out[0] = a[0, 0] + a[n, 0], a[0, 0] - a[n, 0]
    else:  # split
        er, ei, odr, odi = (ar + cr) * 0.5, (ai - ci) * 0.5, (ai + ci) * 0.5, (cr - ar) * 0.5
        tr, ti = odr * wr - odi * wi, odr * wi + odi * wr
        head, tail = (er + tr, ei + ti), (er - tr, ti - ei)
        out[0, 0], out[n, 0] = z[0, 0] + z[0, 1], z[0, 0] - z[0, 1]
    out[1: h + 1, 0], out[1: h + 1, 1] = head
    out[n - 1: h: -1, 0], out[n - 1: h: -1, 1] = tail[0][:pairs], tail[1][:pairs]
    return _fft(out, inverse=True).reshape(2 * n, rows) if inverse else out


def _far_mac(ring, g, s):
    """_tracker.c's far_mac: the sum over the stored spectra ring, (parts,
    bins, 2, rows), slot s the newest, times g's (parts, 2, bins) planes,
    oldest block first, as (bins, 2, rows) planes."""
    parts = len(g)
    for p in range(parts):
        (xr, xi), (gr, gi) = ring[(s + 1 + p) % parts].transpose(1, 0, 2), g[p, :, :, None]
        re, im = xr * gr - xi * gi, xr * gi + xi * gr
        ar, ai = (re, im) if p == 0 else (ar + re, ai + im)
    return np.stack([ar, ai], axis=1)


def _partition_spectra(taps, n):
    """_tracker.c's partition_spectra: the taps' G_p, oldest block first, as
    (parts, 2, n + 1) planes divided by 2n, by _real_fft of the taps'
    partitions and a zero one."""
    parts = taps.size // n
    h = np.zeros((2 * n, parts + 1))
    h[:n, :parts] = taps.reshape(parts, n).T
    hs = _real_fft(h)
    g = (hs[:, :, :-1] + (-1.0) ** np.arange(n + 1)[:, None, None] * hs[:, :, 1:]) / (2 * n)
    return g[:, :, ::-1].transpose(2, 1, 0)


def close_group(taps, twoa, phibar, x0, y0, rec, phip):
    """The closed loop of a whole row group: _tracker.c's close_group in
    numpy, step for step (blocks of min(_BLOCK, nt) samples, every row
    starting in lock at e = 0, the steady-state lead from phibar's and y0's
    last nt samples, the partition spectra by _partition_spectra, the far
    history by _real_fft and _far_mac, each block by _track_block), so its
    bits."""
    (rows, m), nt = phibar.shape, taps.size
    n = min(_BLOCK, nt)
    parts, spectra, e = nt // n, _partition_spectra(taps, n), np.zeros(rows)
    ring = np.empty((parts, n + 1, 2, rows))
    x = np.zeros((2 * n, rows))  # [block, n zeros]
    for k in range(1, parts + m // n):
        j = (k - 1 - parts) * n  # block k - 1 starts at sample j of the record
        if j < 0:  # a steady-state block: the record at zero tracking error
            x[:n] = (phibar[:, m + j: m + j + n] + y0[:, m + j: m + j + n] / twoa).T
        else:
            x[:n] = rec[:, j: j + n].T
        ring[k % parts] = _real_fft(x)
        if k >= parts:
            far = _real_fft(_far_mac(ring, spectra, k % parts), True)[n:]
            _track_block((k - parts) * n, far, taps, twoa, phibar, x0, y0, e, rec, phip)


def normals(seed, trials, purpose, quads, m):
    """The (quads, len(trials), m) planes of standard normal draws whose row
    row is rng.stream(seed, trials[row], purpose)'s first quads m, plane by
    plane: numpy's Generator, the bit oracle of the library's normals."""
    white = np.empty((quads, len(trials), m))
    for row, trial in enumerate(trials):
        white[:, row] = rng.stream(seed, trial, purpose).standard_normal((quads, m))
    return white


def spectrum_product(spectrum: np.ndarray, h: np.ndarray) -> None:
    """spectrum *= the response whose (2, bins) planes are h, in place along
    the last axis, as (sr hr - si hi, sr hi + si hr) with each real product
    rounded on its own: the numpy form of the library's spectrum_product."""
    hr, hi = h
    sr, si = spectrum.real, spectrum.imag
    cross = sr * hi
    sr *= hr
    sr -= si * hi
    si *= hr
    si += cross


def _sum_in_order(start: float, products: np.ndarray, terms: np.ndarray) -> float:
    """start + products[0] + products[1] + ..., added in that order (terms
    is scratch space of more than products.size entries)."""
    k = products.size
    terms[0] = start
    terms[1: k + 1] = products
    return np.add.accumulate(terms[: k + 1])[k]


def levinson(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with sum_k c[|j - k|] x_k = b_j: levinson of _tracker.c in numpy.

    The library's fallback and its reference in the tests, with its
    arithmetic operation for operation: each sum adds its products to its
    constant term in order (an accumulate, never pairwise), and the updates
    of x and g are whole-array, entry by entry as in the C loops.
    """
    n = b.size
    x, g = np.zeros(n), np.zeros(n)
    if c[0] == 0.0:
        raise np.linalg.LinAlgError("Singular principal minor")
    x[0] = b[0] / c[0]
    if n > 1:
        g[0] = c[1] / c[0]
    terms = np.empty(n)
    for m in range(1, n):
        lags = c[m:0:-1]  # c[m - j] for j = 0 .. m-1
        back = g[m - 1::-1]
        den = _sum_in_order(-c[0], lags * back, terms)
        if den == 0.0:
            raise np.linalg.LinAlgError("Singular principal minor")
        xm = _sum_in_order(-b[m], lags * x[:m], terms) / den
        x[m] = xm
        x[:m] -= xm * back
        if m == n - 1:
            break
        gm = _sum_in_order(-c[m + 1], lags * g[:m], terms) / den
        g[m] = gm
        g[:m] = g[:m] - gm * g[:m][::-1]
    return x
