"""Evaluation of the four multivariable hypergeometric families.

The families share the multi-index term shape

    F_A:  (a)_{|m|} prod (b_i)_{m_i} / (prod (g_i)_{m_i} m_i!) x^m,  sum|x_i| < 1
    F_B:  prod (a_i)_{m_i} (b_i)_{m_i} / ((g)_{|m|} m_i!) x^m,       max|x_i| < 1
    F_C:  (a)_{|m|} (b)_{|m|} / (prod (g_i)_{m_i} m_i!) x^m,         sum sqrt|x_i| < 1
    F_D:  (a)_{|m|} prod (b_i)_{m_i} / ((g)_{|m|} m_i!) x^m,         max|x_i| < 1

and are summed shell by shell through the kernels module. Evaluation is
pure; results depend only on the arguments.
"""

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import kernels
from .errors import DomainError, ParamError, SingularParamError, TruncationError

__all__ = [
    "Family",
    "LauricellaParams",
    "EvalOptions",
    "EvalResult",
    "pochhammer",
    "eval_gauss_2f1",
    "eval_appell_f2",
    "eval_lauricella",
    "in_convergence_domain",
    "fd_at_unity",
    "tail_bound",
]


class Family(str, Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


def _is_nonpos_int(v: float) -> bool:
    return v <= 0.0 and v == math.floor(v)


# per family: which of (alpha, beta, gamma) has length r (True) vs 1 (False),
# and which vectors sit in term denominators
_SHAPES = {
    Family.A: (False, True, True),
    Family.B: (True, True, False),
    Family.C: (False, False, True),
    Family.D: (False, True, False),
}


@dataclass(frozen=True)
class LauricellaParams:
    """Parameter bundle for one family at a fixed arity.

    Lengths are checked against the family signature; denominator
    parameters must avoid the non-positive integers, where the series
    is undefined.
    """

    family: Family
    arity: int
    alpha: tuple
    beta: tuple
    gamma: tuple

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if self.arity < 1:
            raise ParamError("arity must be >= 1")
        for name in ("alpha", "beta", "gamma"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not all(math.isfinite(v) for v in vals):
                raise ParamError(f"{name} contains a non-finite value")
            object.__setattr__(self, name, vals)
        shape = _SHAPES[fam]
        for name, long in zip(("alpha", "beta", "gamma"), shape):
            want = self.arity if long else 1
            got = len(getattr(self, name))
            if got != want:
                raise ParamError(
                    f"family {fam.value} needs len({name}) == {want}, got {got}")
        for i, g in enumerate(self.gamma):
            if _is_nonpos_int(g):
                slot = f"gamma[{i + 1}]" if len(self.gamma) > 1 else "gamma"
                raise SingularParamError(
                    f"{slot} = {g} is a non-positive integer")


@dataclass(frozen=True)
class EvalOptions:
    degree_cap: int = 120
    rel_tol: float = 1e-14
    max_terms: int = 2_000_000

    def __post_init__(self):
        if self.degree_cap < 1:
            raise ValueError("degree_cap must be >= 1")
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be > 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


@dataclass(eq=False)
class EvalResult:
    value: float
    terms_summed: int
    last_shell_magnitude: float
    tail_estimate: float
    converged_flag: bool
    shells_used: int
    shell_magnitudes: np.ndarray = field(repr=False)


def _exp_sat(t: float) -> float:
    # saturate instead of raising once Gamma leaves the double range
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def pochhammer(a: float, m: int) -> float:
    """Rising factorial (a)_m. Direct product for small m, log-gamma with
    sign bookkeeping beyond, so large m neither overflows prematurely nor
    loses the exact zeros at non-positive integer a."""
    if m < 0:
        raise ValueError("pochhammer needs m >= 0")
    if m == 0:
        return 1.0
    a = float(a)
    if m <= 64:
        p = 1.0
        for k in range(m):
            p *= a + k
        return p
    if a > 0.0:
        return _exp_sat(math.lgamma(a + m) - math.lgamma(a))
    if a == math.floor(a):
        if a + m - 1 >= 0.0:
            return 0.0  # the factor (a + k) = 0 appears
        v = _exp_sat(math.lgamma(1.0 - a) - math.lgamma(1.0 - a - m))
        return -v if m % 2 else v
    if a + m - 1 < 0.0:
        # all factors negative: (a)_m = (-1)^m (-a)(-a-1)...(-a-m+1)
        v = _exp_sat(math.lgamma(1.0 - a) - math.lgamma(1.0 - a - m))
        return -v if m % 2 else v
    # negative non-integer a, factors straddle zero: split at the sign change
    k0 = math.ceil(-a)
    head = _exp_sat(math.lgamma(1.0 - a) - math.lgamma(1.0 - a - k0))
    if k0 % 2:
        head = -head
    return head * _exp_sat(math.lgamma(a + m) - math.lgamma(a + k0))


def _lngamma_signed(x: float):
    """(sign, log|Gamma(x)|); poles raise."""
    if x > 0.0:
        return 1.0, math.lgamma(x)
    if x == math.floor(x):
        raise SingularParamError(f"Gamma pole at {x}")
    sign = -1.0 if math.ceil(-x) % 2 else 1.0
    return sign, math.lgamma(x)


def in_convergence_domain(family, point):
    """(inside, margin) with margin = 1 - norm; the norm is sum|x| for A,
    max|x| for B and D, and sum sqrt|x| for C."""
    fam = Family(family)
    xs = [float(v) for v in point]
    if not all(math.isfinite(v) for v in xs):
        return False, float("-inf")
    if fam is Family.A:
        norm = sum(abs(v) for v in xs)
    elif fam is Family.C:
        norm = sum(math.sqrt(abs(v)) for v in xs)
    else:
        norm = max((abs(v) for v in xs), default=0.0)
    return norm < 1.0, 1.0 - norm


# sort keys for canonical axis ordering; includes every per-axis quantity
# so ties are broken identically to full-tuple equality
_AXIS_KEYS = {
    Family.A: lambda x, a, b, g: (x, b, g),
    Family.B: lambda x, a, b, g: (x, a, b),
    Family.C: lambda x, a, b, g: (x, g),
    Family.D: lambda x, a, b, g: (x, b),
}


def _reduce_and_sort(params: LauricellaParams, point):
    """Drop exact-zero coordinates (their axes contribute only m_i = 0)
    and sort the rest with their attached parameters, so evaluation is
    bitwise invariant under axis permutation."""
    fam = params.family
    long_a, long_b, long_g = _SHAPES[fam]
    rows = []
    for i, x in enumerate(point):
        if x == 0.0:
            continue
        a = params.alpha[i] if long_a else params.alpha[0]
        b = params.beta[i] if long_b else params.beta[0]
        g = params.gamma[i] if long_g else params.gamma[0]
        rows.append((x, a, b, g))
    key = _AXIS_KEYS[fam]
    rows.sort(key=lambda r: key(*r))
    xs = tuple(r[0] for r in rows)
    alpha = tuple(r[1] for r in rows) if long_a else params.alpha
    beta = tuple(r[2] for r in rows) if long_b else params.beta
    gamma = tuple(r[3] for r in rows) if long_g else params.gamma
    return xs, alpha, beta, gamma


def _step_arrays(fam, alpha, beta, gamma, xs, cap):
    """AS[s] (total-degree step, old total s) and AU[j][m] (axis-j step
    from old m_j = m, coordinate folded in), per the term ratios."""
    r = len(xs)
    s = np.arange(cap, dtype=np.float64)
    m = s
    x = np.asarray(xs, dtype=np.float64)
    if fam is Family.A:
        AS = alpha[0] + s
        AU = (np.asarray(beta)[:, None] + m) * x[:, None] \
            / ((np.asarray(gamma)[:, None] + m) * (m + 1.0))
    elif fam is Family.B:
        AS = 1.0 / (gamma[0] + s)
        AU = (np.asarray(alpha)[:, None] + m) * (np.asarray(beta)[:, None] + m) \
            * x[:, None] / (m + 1.0)
    elif fam is Family.C:
        AS = (alpha[0] + s) * (beta[0] + s)
        AU = x[:, None] / ((np.asarray(gamma)[:, None] + m) * (m + 1.0))
    else:
        AS = (alpha[0] + s) / (gamma[0] + s)
        AU = (np.asarray(beta)[:, None] + m) * x[:, None] / (m + 1.0)
    return np.ascontiguousarray(AS), np.ascontiguousarray(AU.reshape(r, cap))


@lru_cache(maxsize=256)
def _shell_cap_from_terms(r: int, max_terms: int, degree_cap: int) -> int:
    """Largest S <= degree_cap whose cumulative term count C(S + r, r)
    stays within max_terms (0 when even shell 1 exceeds it)."""
    # C(s + 1 + r, r) grows with s: bisect for the first shell past the guard
    return bisect.bisect_right(range(degree_cap), max_terms,
                               key=lambda s: math.comb(s + 1 + r, r))


def _finish(value, shells, mag_last, mag_prev, terms, status, mags,
            rel_tol, q_cap, terms_limited):
    if status == kernels.TERMINATED:
        tail = 0.0
    else:
        q = mag_last / mag_prev if mag_prev > 0.0 else q_cap
        q = min(q, q_cap)
        tail = mag_last * q / (1.0 - q)
    converged = tail <= rel_tol * max(abs(value), kernels.TINY)
    if not converged and status == kernels.MAXED and terms_limited:
        raise TruncationError(
            f"series not converged after {terms} terms (max_terms guard); "
            f"tail estimate {tail:.3e}")
    return EvalResult(
        value=float(value),
        terms_summed=int(terms),
        last_shell_magnitude=float(mag_last),
        tail_estimate=float(tail),
        converged_flag=bool(converged),
        shells_used=int(shells),
        shell_magnitudes=np.array(mags[: shells + 1]),
    )


def eval_lauricella(params: LauricellaParams, point, opts: EvalOptions | None = None
                    ) -> EvalResult:
    """Truncated multi-index sum of the family series at `point`.

    Coordinates equal to 0.0 are eliminated exactly, the rest are put in
    a canonical order (the series is symmetric under simultaneous
    permutation of coordinates and their attached parameters), then the
    shell kernels run up to the degree cap.
    """
    opts = opts or EvalOptions()
    xs = tuple(float(v) for v in point)
    if len(xs) != params.arity:
        raise ParamError(f"point length {len(xs)} != arity {params.arity}")
    inside, margin = in_convergence_domain(params.family, xs)
    if not inside:
        raise DomainError(
            f"point outside the family {params.family.value} domain "
            f"(margin {margin:.3g})")
    xs_r, alpha, beta, gamma = _reduce_and_sort(params, xs)
    r = len(xs_r)
    if r == 0:
        return EvalResult(1.0, 1, 1.0, 0.0, True, 0, np.ones(1))
    s_max = _shell_cap_from_terms(r, opts.max_terms, opts.degree_cap)
    terms_limited = s_max < opts.degree_cap
    AS, AU = _step_arrays(params.family, alpha, beta, gamma, xs_r, s_max)
    q_cap = 1.0 - margin / 2.0
    out = kernels.shell_sum(r, AS, AU, opts.rel_tol, q_cap, s_max)
    return _finish(*out, opts.rel_tol, q_cap, terms_limited)


def eval_gauss_2f1(a, b, c, z, opts: EvalOptions | None = None) -> EvalResult:
    """Gauss series sum_m (a)_m (b)_m / ((c)_m m!) z^m, |z| < 1."""
    z = float(z)
    if _is_nonpos_int(float(c)):
        raise ParamError(f"lower parameter {c} is a non-positive integer")
    if not abs(z) < 1.0:
        raise DomainError(f"|z| = {abs(z)} not inside the unit disk")
    params = LauricellaParams(Family.A, 1, (float(a),), (float(b),), (float(c),))
    return eval_lauricella(params, (z,), opts)


def eval_appell_f2(alpha, beta1, beta2, gamma1, gamma2, x, y,
                   opts: EvalOptions | None = None) -> EvalResult:
    """The two-variable series with term (a)_{i+j}(b1)_i(b2)_j /
    ((g1)_i(g2)_j i! j!), i.e. the arity-2 case of family A."""
    params = LauricellaParams(
        Family.A, 2, (float(alpha),),
        (float(beta1), float(beta2)), (float(gamma1), float(gamma2)))
    return eval_lauricella(params, (float(x), float(y)), opts)


def fd_at_unity(params: LauricellaParams) -> float:
    """Family D at the all-ones point, by the gamma-ratio closed form
    G(g) G(g-a-sum b) / (G(g-a) G(g-sum b)); needs g - a - sum(b) > 0."""
    if params.family is not Family.D:
        raise ParamError("closed form applies to family D only")
    a = params.alpha[0]
    g = params.gamma[0]
    bsum = sum(params.beta)
    c = g - a - bsum
    if not c > 0.0:
        raise ParamError(
            f"needs gamma - alpha - sum(beta) > 0, got {c}")
    sig = 1.0
    ln = 0.0
    for v in (g, c):
        s_i, l_i = _lngamma_signed(v)
        sig *= s_i
        ln += l_i
    for v in (g - a, g - bsum):
        try:
            s_i, l_i = _lngamma_signed(v)
        except SingularParamError:
            return 0.0  # Gamma pole in the denominator
        sig *= s_i
        ln -= l_i
    return sig * math.exp(ln)


def tail_bound(params: LauricellaParams, point, N: int) -> float:
    """Geometric tail majorant after summing through total degree N:
    mag_N * q/(1-q), q the empirical shell ratio clamped to 1 - margin/2.
    Runs the shells without early stopping so the ratio is the real one.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    xs = tuple(float(v) for v in point)
    if len(xs) != params.arity:
        raise ParamError(f"point length {len(xs)} != arity {params.arity}")
    inside, margin = in_convergence_domain(params.family, xs)
    if not inside:
        raise DomainError("tail bound needs an interior point")
    AS, AU = _step_arrays(params.family, params.alpha, params.beta,
                          params.gamma, xs, N)
    q_cap = 1.0 - margin / 2.0
    # rel_tol = 0 disables the early stop (a positive tail never passes)
    _, shells, mag_last, mag_prev, _, status, mags = kernels.shell_sum(
        params.arity, AS, AU, 0.0, q_cap, N)
    if status == kernels.TERMINATED or mags[N] == 0.0:
        return 0.0
    q = mags[N] / mags[N - 1]
    if q >= 1.0:
        raise TruncationError(
            f"shell ratio {q:.3g} >= 1 at degree {N}; bound unavailable")
    # a still-rising ratio sequence underestimates its own limit, and the
    # limit never exceeds q_cap; a falling one majorizes all later ratios;
    # the relative slack keeps constant-ratio series off the rising branch
    rising = N < 2 or q > (mags[N - 1] / mags[N - 2]) * (1.0 + 1e-9)
    q = q_cap if rising else min(q, q_cap)
    return float(mags[N] * q / (1.0 - q))
