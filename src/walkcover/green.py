"""Lattice Green's functions for the simple walk and the
coordinate-difference walk, with return-probability asymptotics.

Both walks run on one slot engine (``_slot_targets``): a walk sits at x
when each of its independent +/-1 "slot" walks sits at its target, for
some winding level.  The simple walk has one level, and its slots are
its d coordinates.  The coordinate-difference walk (the d-1 dimensional
walk of consecutive coordinate gaps, whose returns to 0 are the ambient
walk's returns to the diagonal) has the d "bond" walks as slots, all at
a common integer winding level k, shifted along the segment between the
probed bonds for off-diagonal values.

* **fourier** - the method of record: the defining torus integral with
  theta integrated out, G(x) = Int_0^inf prod_i ive(|x_i|, t/d) dt
  (Montroll 1956; Guttmann, J. Phys. A 43 (2010) 305205), by
  Gauss-Legendre in log t plus a fitted tail, the integrand summed over
  the levels one panel of t at a time.  Each panel's nodes, of both
  quadrature orders, share one table of ive(n, t/d) over every order n,
  built by the backward ratio recurrence from ive(0, t/d) (power series or
  Hankel expansion) and the top order's ratio (Perron's continued
  fraction), both formed once per call over every node.  Its stated bound
  is about 1e-12 in every dimension, up to Bessel order ``FOURIER_MAX_ORDER``.

* **stepsum** - the independent cross-check, up to dimension
  ``STEPSUM_MAX_DIM``.  G(x) = sum_n P(X_n = x) is summed exactly to a
  step horizon and closed with one analytic local-CLT tail for both walks.  The n-step probabilities come from
  splitting the n steps multinomially over the slots, each then an
  independent +/-1 walk: a cascade of binomial-mixture convolutions,
  through which all winding levels run together, sharing their binomial
  rows.  The same cascade gives the character moments of the difference
  walk by Fourier inversion, in any dimension.

Return probabilities follow as ``1 - 1/G(0)`` for each walk; the sweep
tabulates how ``2d x (return probability)`` descends toward its
high-dimension limit of 1.  Error bounds are heuristic-rigorous: stated
tail bounds plus observed refinement convergence, not interval
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval


SIMPLE = "simple"
DIAGONAL_DIFFERENCE = "diagonal_difference"
METHODS = ("fourier", "stepsum", "both")

#: Added to every stated bound: the rounding that no truncation term covers.
ROUNDING_FLOOR = 1e-12


class RecurrentWalkError(ValueError):
    """A divergent Green's function was requested."""


class ToleranceUnreachableError(ArithmeticError):
    """The evaluation budget cannot certify the requested tolerance, or
    the two routes disagree beyond their combined bounds."""


@dataclass(frozen=True)
class WalkSpectrum:
    """A walk identified by its character function on [-pi, pi]^dim."""

    kind: str
    d: int

    def __post_init__(self):
        if self.kind not in (SIMPLE, DIAGONAL_DIFFERENCE):
            raise ValueError(f"unknown walk kind {self.kind!r}")
        if self.d < 1 or (self.kind == DIAGONAL_DIFFERENCE and self.d < 2):
            raise ValueError("dimension too small")

    @property
    def dim(self) -> int:
        return self.d if self.kind == SIMPLE else self.d - 1

    @property
    def transient(self) -> bool:
        return self.dim >= 3

    def character(self, theta: np.ndarray) -> np.ndarray:
        """phi(theta) = E[exp(i theta . X_1)]; |phi| <= 1, phi(0) = 1."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == SIMPLE:
            return np.cos(theta).sum(axis=-1) / self.d
        total = np.cos(theta[..., 0]) + np.cos(theta[..., -1])
        if self.dim > 1:
            total = total + np.cos(np.diff(theta, axis=-1)).sum(axis=-1)
        return total / self.d


def simple_walk(d: int) -> WalkSpectrum:
    return WalkSpectrum(SIMPLE, d)


def diagonal_difference_walk(d: int) -> WalkSpectrum:
    return WalkSpectrum(DIAGONAL_DIFFERENCE, d)


@dataclass(frozen=True)
class GreenValue:
    value: float
    abs_error_bound: float
    method: str

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.abs_error_bound)):
            raise FloatingPointError(
                f"{self.method} value {self.value} +/- {self.abs_error_bound} is not finite")
        if self.abs_error_bound < 0:
            raise ValueError("error bound must be nonnegative")


# ---------------------------------------------------------------------------
# stepsum route
# ---------------------------------------------------------------------------

def _one_dim_landing(target: int, n_max: int) -> np.ndarray:
    """q[k] = P(k-step +/-1 walk sits at `target`) = C(k, (k+t)/2) 2^-k, from
    q[t] = 2^-t by q[k+2]/q[k] = 1 + (t^2 - k - 2)/((k+2)^2 - t^2), summed in
    logs, so no term under- or overflows before its exponential."""
    t = abs(int(target))
    q = np.zeros(n_max + 1)
    k = np.arange(t, n_max + 1, 2)
    steps = np.log1p((t * t - k[:-1] - 2.0) / ((k[:-1] + 2.0) ** 2 - t * t))
    q[k] = np.exp(np.cumsum(np.r_[-t * math.log(2.0), steps])[:k.size])
    return q


def _alloc_merge(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """c[..., m] = sum_k Binom(m, p)(k) a[..., k] b[..., m-k]: prepend one
    slot that binomially claims its share of the m steps.  Leading axes
    index winding levels; every level shares each binomial row."""
    n = a.shape[-1] - 1
    c = np.empty(a.shape)
    c[..., 0] = a[..., 0] * b[..., 0]
    row = np.zeros(n + 1)  # row[:m + 1] holds the Binom(m, p) pmf
    row[0] = 1.0
    q = 1.0 - p
    for m in range(1, n + 1):
        claimed = row[:m] * p
        row[:m] *= q
        row[1:m + 1] += claimed
        c[..., m] = np.dot(a[..., :m + 1] * b[..., m::-1], row[:m + 1])
    return c


def _alloc_cascade(targets: np.ndarray, n_max: int) -> np.ndarray:
    """f[..., n] = P(n steps split multinomially over the slots (the last
    axis of `targets`) leave every slot's +/-1 walk at its target).  The
    leading axes (winding levels) run through one cascade together."""
    targets = np.abs(np.asarray(targets, dtype=int))
    dist = sorted(set(targets.flat))
    land = np.array([_one_dim_landing(t, n_max) for t in dist])
    land_row = np.searchsorted(dist, targets)
    slots = targets.shape[-1]
    h = land[land_row[..., -1]]
    for j in range(slots - 2, -1, -1):
        h = _alloc_merge(land[land_row[..., j]], h, 1.0 / (slots - j))
    return h


def _slot_targets(spec: WalkSpectrum, x: Sequence[int], horizon: float,
                  max_order: float = math.inf) -> np.ndarray:
    """Row r: where the slot walks must sit at the r-th winding level for
    the walk to sit at x.  The difference walk's level k puts bond h at
    k - partial[h] (column 0 is k); after n steps (or time t) k has
    variance about n/d^2, so the levels run 10 sd + 10 beyond the bond
    offsets.  The simple walk has the one level 0, with partial = -x.
    Raises, before it forms them, when a target lies past max_order."""
    if len(x) != spec.dim:
        raise ValueError(f"x must have dimension {spec.dim}")
    if spec.kind == SIMPLE:
        partial, lo, hi = [-int(c) for c in x], 0, 0
    else:
        partial = [0, *accumulate(map(int, x))]
        reach = int(10 * math.sqrt(horizon) / spec.d) + 10
        lo, hi = min(partial) - reach, max(partial) + reach
    order = max(hi - min(partial), max(partial) - lo)
    if order > max_order:
        raise ToleranceUnreachableError(
            f"fourier tabulates Bessel orders up to {max_order}; x = {tuple(x)} "
            f"needs order {order}")
    return np.arange(lo, hi + 1)[:, None] - np.array(partial)


def _step_terms(spec: WalkSpectrum, x: Sequence[int], n_max: int) -> np.ndarray:
    """P(X_n = x) for n = 0..n_max, summed over the slots' winding levels."""
    return _alloc_cascade(_slot_targets(spec, x, n_max), n_max).sum(axis=0)


def _lclt_amplitude(spec: WalkSpectrum) -> float:
    """A = (2 pi)^-s det(Sigma)^-1/2 in the parity-averaged local CLT, for the
    step covariance Sigma = I/d (simple) or T/d (difference, det T = d)."""
    amp = (spec.d / (2 * math.pi)) ** (spec.dim / 2.0)
    return amp if spec.kind == SIMPLE else amp / math.sqrt(spec.d)


def _lclt_exponent(spec: WalkSpectrum, x: Sequence[int]) -> tuple[Sequence[int], float]:
    """x's slot offsets q and the exponent a of the local-CLT envelope A n^-s e^(-a/n);
    for the difference walk q are the bond offsets (0, cumsum(y)) and a = d y^T T^-1 y / 2."""
    diff = spec.kind == DIAGONAL_DIFFERENCE
    q = (0, *accumulate(x)) if diff else x
    return q, spec.d * (sum(c * c for c in q) - diff * sum(q) ** 2 / spec.d) / 2.0


def _gamma_p(a: float, x: float) -> float:
    """The regularized lower incomplete gamma function P(a, x), for an integer
    or half-integer a >= 1/2 and x > 0.  Below x = a + 1 its series
    x^a e^-x / Gamma(a + 1) sum_k x^k / ((a + 1) ... (a + k)); from there on
    1 - Q(a, x), with Q = e^-x sum_(k < a) x^k / k! for integer a and
    erfc(sqrt x) + e^-x sum_(k < a - 1/2) x^(k + 1/2) / Gamma(k + 3/2) for
    half-integer a (DLMF 8.4).  Every sum has positive terms."""
    if x < a + 1:
        term = total = 1.0
        k = 1
        while term > 1e-17 * total:
            term *= x / (a + k)
            total += term
            k += 1
        return total * math.exp(a * math.log(x) - x - math.lgamma(a + 1))
    half = a % 1
    q = sum(math.exp((half + k) * math.log(x) - x - math.lgamma(half + k + 1))
            for k in range(int(a)))
    return 1.0 - q - (math.erfc(math.sqrt(x)) if half else 0.0)


def _lclt_tail(spec: WalkSpectrum, x: Sequence[int], n_max: int) -> tuple[float, float]:
    """Local-CLT closure of sum_{n > n_max} P(X_n = x) and its bound: the
    integral of the envelope A n^-s e^(-a/n), plus the alternating half-term
    of a period-2 walk (the simple walk, and the difference walk at even d),
    whose n has the parity of sum(q)."""
    s, amp = spec.dim / 2.0, _lclt_amplitude(spec)
    q, a = _lclt_exponent(spec, x)
    N = n_max + 0.5
    if a == 0:
        tail = amp * N ** (1 - s) / (s - 1)
    else:
        tail = amp * a ** (1 - s) * _gamma_p(s - 1, a / N) * math.gamma(s - 1)
    if spec.kind == SIMPLE or spec.d % 2 == 0:
        g_next = amp * (n_max + 1.0) ** (-s) * math.exp(-a / (n_max + 1))
        tail += (-1 if (n_max + 1 + sum(q)) % 2 else 1) * g_next / 2.0
    return tail, 2.0 * amp * n_max ** (-s)


#: Past this dimension Gamma(dim/2 - 1) in the local-CLT tail overflows a float.
STEPSUM_MAX_DIM = 345


def _stepsum_n_max(spec: WalkSpectrum, tol: float) -> int:
    """The first horizon whose tail bound is at most tol/2, within [400, 25000].
    Raises past STEPSUM_MAX_DIM, before any tail term is formed."""
    if spec.dim > STEPSUM_MAX_DIM:
        raise ToleranceUnreachableError(
            f"stepsum reaches dimension {STEPSUM_MAX_DIM} at most; the {spec.kind} "
            f"walk at d = {spec.d} has dimension {spec.dim}")
    n = math.exp((math.log(4.0 * _lclt_amplitude(spec)) - math.log(tol)) * 2.0 / spec.dim)
    return min(max(math.ceil(n), 400), 25000)


def stepsum_green(spec: WalkSpectrum, x: Sequence[int], tol: float = 1e-4) -> GreenValue:
    """Partial sum of n-step probabilities plus the local-CLT tail, bound
    2 A n_max^-(dim/2) + ROUNDING_FLOOR.  Raises before the cascade runs when
    the 25 000-step cap keeps that above tol."""
    if not spec.transient:
        raise RecurrentWalkError(f"G diverges for {spec.kind} with dim {spec.dim}")
    n_max = _stepsum_n_max(spec, tol)
    tail, bound = _lclt_tail(spec, x, n_max)
    bound += ROUNDING_FLOOR
    if not bound <= tol:
        raise ToleranceUnreachableError(
            f"stepsum bound {bound:.2e} at {n_max} steps exceeds tol {tol:.2e}")
    return GreenValue(float(_step_terms(spec, x, n_max).sum() + tail), bound, "stepsum")


# ---------------------------------------------------------------------------
# fourier route
# ---------------------------------------------------------------------------

#: ive(0, s) sums this many terms of its power series below s = 20 and of its
#: Hankel expansion from there on; the Hankel terms still fall at s = 20.
_IVE0_TERMS = 41
_IVE0_SERIES = np.array([1 / math.factorial(k) ** 2 for k in range(_IVE0_TERMS)])
_IVE0_HANKEL = np.array([math.prod(range(1, 2 * k, 2)) ** 2 / (math.factorial(k) * 8**k)
                         for k in range(_IVE0_TERMS)])

#: Levels of Perron's continued fraction: full precision at every s from order 2 on.
_PERRON_LEVELS = 48

#: The largest Bessel order a fourier table holds: its recurrence runs one row per order.
FOURIER_MAX_ORDER = 2**14


def _ive0(s: np.ndarray) -> np.ndarray:
    """ive(0, s): e^-s sum_k (s/2)^2k / k!^2 below s = 20, and the Hankel
    expansion (2 pi s)^-1/2 sum_k ((2k-1)!!)^2 / (k! (8s)^k) (DLMF 10.40.1)
    from there on.  Both have positive terms."""
    near = s < 20.0
    out = np.empty(s.shape)
    a, b = s[near], s[~near]
    out[near] = np.exp(-a) * polyval(a * a / 4, _IVE0_SERIES)
    out[~near] = polyval(1 / b, _IVE0_HANKEL) / np.sqrt(2 * np.pi * b)
    return out


def _ive_ratio(n: np.ndarray, s: np.ndarray) -> np.ndarray:
    """I_n(s) / I_(n-1)(s) by Perron's continued fraction
    s / (2n + s - (2n + 1) s / (2n + 1 + 2s - (2n + 3) s / (2n + 2 + 2s - ...))),
    which, unlike the fraction of the three-term recurrence, converges
    geometrically at large s too (Gautschi and Slavik, Math. Comp. 32 (1978)
    865).  Its denominators stay positive, so no level cancels."""
    k = np.arange(_PERRON_LEVELS, 0, -1)[:, None]
    num = (2.0 * n + 2.0 * k - 1.0) * s           # level k's numerator,
    den = 2.0 * n + (k - 1.0) + 2.0 * s           # over level k - 1's denominator
    den[-1] -= s
    f = den[0] + 1.0
    for a, b in zip(num, den):
        np.divide(a, f, out=f)
        np.subtract(b, f, out=f)
    return s / f


def _ive_table(m: int, s: np.ndarray, ive0: np.ndarray, r: np.ndarray) -> np.ndarray:
    """table[n] = ive(n, s) for n = 0..m, from ive(0, s) and r = I_(m+1)(s) / I_m(s).
    The ratio r_n = I_n / I_(n-1) = 1 / (2n/s + r_(n+1)) runs down from r_(m+1),
    which damps its errors (Gautschi, SIAM Review 9, 1967); the cumulative
    product with ive(0, s) then gives the table, whose high orders underflow
    to 0 at small s."""
    table = np.empty((m + 1, s.size))
    table[0] = ive0
    if m:
        ratios = table[1:]
        np.divide.outer(2.0 * np.arange(1, m + 1), s, out=ratios)
        for row in ratios[::-1]:
            row += r
            np.divide(1.0, row, out=row)
            r = row
        np.cumprod(table, axis=0, out=table)
    return table


def _occupation_density(spec: WalkSpectrum, x: Sequence[int],
                        t: Sequence[np.ndarray]) -> np.ndarray:
    """P(Y_t = x) for the walk at rate 1 in continuous time, at every node of
    the rows of t (a 2-D array or a list of 1-D rows), the rows' results
    concatenated: each slot is an independent rate-1/d +/-1 walk, at n with
    probability ive(n, t/d).  Slots sum over their winding levels as in
    _step_terms, one row at a time over the levels its largest t reaches,
    so memory stays at one row's Bessel table; ive(0, t/d) and each row's
    top ratio are formed first, over every node at once.  Raises when a row
    needs an order past FOURIER_MAX_ORDER, before any table is formed."""
    s = [tp / spec.d for tp in t]
    slots = [np.abs(_slot_targets(spec, x, tp.max(), FOURIER_MAX_ORDER)) for tp in t]
    tops = np.array([int(b.max()) for b in slots])
    flat = np.concatenate(s)
    ive0 = _ive0(flat)
    n = np.repeat(tops + 1, [row.size for row in s])
    ratio = np.zeros(flat.size)  # order-0 tables read no ratio
    ratio[n > 1] = _ive_ratio(n[n > 1], flat[n > 1])
    out, lo = [], 0
    for row, b, m in zip(s, slots, tops):
        table = _ive_table(int(m), row, ive0[lo:lo + row.size], ratio[lo:lo + row.size])
        prod = table[b[:, 0]]
        for c in b.T[1:]:
            prod *= table[c]
        out.append(prod.sum(axis=0))
        lo += row.size
    return np.concatenate(out)


@cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule on [0, 1]: nodes and weights, read-only."""
    z, w = leggauss(order)
    u, w = (z + 1) / 2, w / 2
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def fourier_green(spec: WalkSpectrum, x: Sequence[int], tol: float = 1e-4) -> GreenValue:
    """The torus integral ``(2pi)^-dim Int cos(x.theta) / (1 - phi(theta))``
    as Int_0^inf P(Y_t = x) dt, since 1/(1 - phi) = Int_0^inf e^(-t(1 - phi)) dt.
    Bound: twice the gap of two quadrature orders plus the last tail term."""
    if not spec.transient:
        raise RecurrentWalkError(f"G diverges for {spec.kind} with dim {spec.dim}")
    # Gauss-Legendre on [0, 1] in t, then unit panels in log t past the peak near t = a
    panels = max(12, math.ceil(math.log(max(_lclt_exponent(spec, x)[1], 1.0))) + 4)
    orders = (12, 16)  # their nodes share each panel's row, and so its Bessel table
    u, w = (np.concatenate(parts) for parts in zip(*map(_gauss_legendre, orders)))
    t = np.exp(np.add.outer(np.arange(panels), u))
    # beyond T, (t/T)^m f(t) = b0 + b1 (T/t) + b2 (T/t)^2 + ...; fit at T/t =
    # 4, 2 and 1, nodes that join the last panel's row.  Scaled by T, the fit
    # forms no power of T, which would overflow
    T, m = math.exp(panels), spec.dim / 2.0
    v = np.array([4.0, 2.0, 1.0])
    f = _occupation_density(spec, x, [u, *t[:-1], np.r_[t[-1], T / v]])
    fw = f[:-v.size].reshape(panels + 1, u.size) * np.vstack([w, w * t])
    body = [float(part.sum()) for part in np.split(fw, orders[:1], axis=1)]
    b2, b1, b0 = np.linalg.solve(np.vander(v, 3), f[-v.size:] * v**-m)
    last = T * b2 / (m + 1)
    tail = T * (b0 / (m - 1) + b1 / m) + last
    bound = float(2.0 * abs(body[1] - body[0]) + abs(last) + ROUNDING_FLOOR)
    if not bound <= tol:
        raise ToleranceUnreachableError(f"fourier bound {bound:.2e} exceeds tol {tol:.2e}")
    return GreenValue(float(body[1] + tail), bound, "fourier")


# ---------------------------------------------------------------------------
# combined entry points
# ---------------------------------------------------------------------------

def _canonical_x(spec: WalkSpectrum, x: tuple[int, ...]) -> tuple[int, ...]:
    if spec.kind == SIMPLE:
        return tuple(sorted((abs(c) for c in x), reverse=True))
    neg = tuple(-c for c in x)
    return min(x, x[::-1], neg, neg[::-1])


@lru_cache(maxsize=4096)
def _green_cached(spec: WalkSpectrum, x: tuple[int, ...], tol: float, method: str) -> GreenValue:
    if method == "stepsum":
        return stepsum_green(spec, x, tol)
    if method == "fourier":
        return fourier_green(spec, x, tol)
    four, step = (_green_cached(spec, x, tol, m) for m in ("fourier", "stepsum"))
    if abs(step.value - four.value) > step.abs_error_bound + four.abs_error_bound:
        raise ToleranceUnreachableError(
            f"methods disagree: stepsum {step.value} +/- {step.abs_error_bound}, "
            f"fourier {four.value} +/- {four.abs_error_bound}")
    return four


def green_value(spec: WalkSpectrum, x: Sequence[int], tol: float = 1e-4,
                method: str = "fourier") -> GreenValue:
    """G(x) for the requested walk.

    "fourier", the default, is the value of record.  "stepsum" returns the
    independent cross-check's value instead; "both" runs the two routes,
    raises unless they agree within the sum of their error bounds, and
    returns the fourier value.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    xt = tuple(int(c) for c in x)
    return _green_cached(spec, _canonical_x(spec, xt), tol, method)


def return_probability(spec: WalkSpectrum, tol: float = 1e-5) -> float:
    """Probability the walk ever returns to 0: 1 - 1/G(0).  For the simple
    walk on Z^d, strictly between 1/(2d) and 1; for the difference walk,
    the probability the simple walk ever returns to the full diagonal line."""
    return 1.0 - 1.0 / green_value(spec, (0,) * spec.dim, tol).value


def _difference_vector(d: int, i: int, j: int) -> tuple[int, ...]:
    """e_j - e_i in the difference lattice, with index 0 denoting the
    zero vector (the walk's basis is indexed 0..d-1)."""
    if not (0 <= i <= d - 1 and 0 <= j <= d - 1):
        raise ValueError("indices must lie in 0..d-1")
    y = [0] * (d - 1)
    if j >= 1:
        y[j - 1] += 1
    if i >= 1:
        y[i - 1] -= 1
    return tuple(y)


def character_power_moment(d: int, i: int, j: int, k: int) -> float:
    """Raw integral of cos(theta_j - theta_i) * phihat^k over
    [-pi, pi]^(d-1): by Fourier inversion, (2pi)^(d-1) times the k-step
    probability of the difference walk landing at e_j - e_i.

    A k-step difference walk cannot bridge a cyclic index gap larger than
    k, so the integral is exactly 0 whenever d(i,j) > k; with the gap
    reachable it is positive (e.g. (2pi)^(d-1) / (2d) at gap 1, k = 1).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    y = _difference_vector(d, i, j)
    return (2 * math.pi) ** (d - 1) * float(_step_terms(diagonal_difference_walk(d), y, k)[k])


# ---------------------------------------------------------------------------
# asymptotic sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    d: int
    p_return: float
    scaled_return: float          # 2d * p_d
    p_diagonal: float | None      # d >= 4 only
    scaled_diagonal: float | None
    excess: float                 # E_d = G_d(0) - 1 - 1/(2d)
    scaled_excess: float          # d * E_d


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    note: str
    trend_failures: tuple[str, ...]


def asymptotic_sweep(d_min: int = 3, d_max: int = 10, tol: float = 1e-3) -> SweepTable:
    """Tabulate return probabilities against their high-dimension
    scalings and check the desk-scale trends: ``2d p_d`` and ``2d P_d``
    strictly decreasing (so P_d falls) and > 1, ``p_d`` in (1/2d, 1) (so
    E_d > 0), ``d E_d`` decreasing.  The limits
    themselves (both scalings -> 1) are out of reach at finite d; only
    monotone descent is asserted.
    """
    if not 3 <= d_min <= d_max:
        raise ValueError("need 3 <= d_min <= d_max")
    rows = []
    for d in range(d_min, d_max + 1):
        g0 = green_value(simple_walk(d), (0,) * d, tol).value
        p = return_probability(simple_walk(d), tol)
        excess = g0 - 1.0 - 1.0 / (2 * d)
        diag = diagonal_difference_walk(d)
        pd = return_probability(diag, tol) if diag.transient else None
        rows.append(SweepRow(d, p, 2 * d * p, pd, None if pd is None else 2 * d * pd,
                             excess, d * excess))
    failures = []
    for a, b in zip(rows, rows[1:]):
        if not b.scaled_return < a.scaled_return:
            failures.append(f"2d*p_d not decreasing at d={b.d}")
        if a.scaled_diagonal is not None and b.scaled_diagonal is not None:
            if not b.scaled_diagonal < a.scaled_diagonal:
                failures.append(f"2d*P_d not decreasing at d={b.d}")
        if not b.scaled_excess < a.scaled_excess:
            failures.append(f"d*E_d not decreasing at d={b.d}")
    for r in rows:
        if not r.scaled_return > 1.0:
            failures.append(f"2d*p_d <= 1 at d={r.d}")
        if r.scaled_diagonal is not None and not r.scaled_diagonal > 1.0:
            failures.append(f"2d*P_d <= 1 at d={r.d}")
        if not 1.0 / (2 * r.d) < r.p_return < 1.0:
            failures.append(f"p_d outside (1/2d, 1) at d={r.d}")
    note = ("trend check at desk scale: monotone descent of the scaled return "
            "probabilities toward their high-dimension limit 1; the limit itself "
            "is not attainable at finite d")
    return SweepTable(tuple(rows), note, tuple(failures))
