"""Eulerian integral representations by tensor Gauss-Jacobi quadrature.

The four representations integrate a smooth factor against the weight
t^(p-1) (1-t)^(q-1) on [0,1] per axis, with per-axis exponent pairs
drawn from the parameters. Absorbing the weight into a Gauss-Jacobi
rule keeps spectral accuracy for every admissible exponent, endpoint
singularities included; the integrand that remains is the power kernel
(1 - x t1 - y t2 - z t3)^(-alpha) times, depending on the row, a Gauss,
two-variable, or three-variable hypergeometric factor evaluated at
node-dependent arguments. Those factors run through the batched series
kernel, chunked to bound memory.

The power kernel prints with the second coordinate multiplying the
first node variable in three of the four rows. Both readings are
first-class: kernel_variant "verbatim" evaluates what is printed,
"corrected" pairs each coordinate with its own node variable. The
cross-check evaluates both and reports which one matches the series.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .errors import DomainError, LauricellaError, ParamError, TruncationError
from .kernels import TINY, batch_shell_sum
from .report import VerifyReport
from .series import EvalOptions, Family, LauricellaParams, eval_lauricella

__all__ = [
    "GaussJacobiAxis",
    "QuadratureRule",
    "IntegralRepDescriptor",
    "gauss_jacobi_rule",
    "list_integral_reps",
    "integral_rep",
    "build_rule",
    "eval_integral_rep",
    "cross_check",
    "both_variant_reports",
    "sample_integral_cases",
]

_PRESCAN_MARGIN = 0.05
_BATCH_RTOL = 1e-15


@dataclass(frozen=True, eq=False)
class GaussJacobiAxis:
    n: int
    p: float
    q: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    axes: tuple

    @property
    def n(self):
        return tuple(a.n for a in self.axes)


def gauss_jacobi_rule(n: int, p: float, q: float) -> GaussJacobiAxis:
    """Nodes/weights with sum w_i f(t_i) ~ integral of
    t^(p-1) (1-t)^(q-1) f(t) over [0,1], exact for deg f <= 2n-1."""
    if n < 1:
        raise ParamError(f"node count {n} must be at least 1")
    if not p > 0.0:
        raise ParamError(f"axis exponent p = {p} must be positive")
    if not q > 0.0:
        raise ParamError(f"axis exponent q = {q} must be positive")
    u, w = roots_jacobi(n, q - 1.0, p - 1.0)
    nodes = 0.5 * (u + 1.0)
    weights = w * 0.5 ** (p + q - 1.0)
    return GaussJacobiAxis(n, float(p), float(q), nodes, weights)


@dataclass(frozen=True)
class IntegralRepDescriptor:
    id: str
    kernel_variant: str          # "verbatim" | "corrected"
    inner_function: str          # power | gauss_2f1 | appell_f2 | lauricella_fa
    axis_exponents: tuple        # ((p_expr, q_expr), ...) resolved per call
    conditions: str
    n_eps: int

    def __post_init__(self):
        if self.kernel_variant not in ("verbatim", "corrected"):
            raise ValueError(self.kernel_variant)


_AXIS_TEMPLATES = {
    "5.1": ((("beta1", "gamma1-beta1"), ("beta2", "gamma2-beta2"),
             ("beta3", "gamma3-beta3")),
            "power", "gamma_l > beta_l > 0 for l = 1,2,3", 0),
    "5.2": ((("eps1", "gamma1-eps1"), ("beta2", "gamma2-beta2"),
             ("beta3", "gamma3-beta3")),
            "gauss_2f1",
            "gamma1 > eps1 > 0; gamma_l > beta_l > 0 for l = 2,3", 1),
    "5.3": ((("eps1", "gamma1-eps1"), ("eps2", "gamma2-eps2"),
             ("beta3", "gamma3-beta3")),
            "appell_f2",
            "gamma_l > eps_l > 0 for l = 1,2; gamma3 > beta3 > 0", 2),
    "5.4": ((("eps1", "gamma1-eps1"), ("eps2", "gamma2-eps2"),
             ("eps3", "gamma3-eps3")),
            "lauricella_fa", "gamma_l > eps_l > 0 for l = 1,2,3", 3),
}


def integral_rep(fid: str, variant: str = "corrected") -> IntegralRepDescriptor:
    try:
        axes, inner, cond, n_eps = _AXIS_TEMPLATES[fid]
    except KeyError:
        raise KeyError(f"no integral representation {fid!r}") from None
    return IntegralRepDescriptor(fid, variant, inner, axes, cond, n_eps)


def list_integral_reps(variant: str = "corrected"):
    return tuple(integral_rep(fid, variant) for fid in sorted(_AXIS_TEMPLATES))


# ---------------------------------------------------------------------------

def _env(params: LauricellaParams, eps):
    if params.family is not Family.A or params.arity != 3:
        raise ParamError("integral representations cover the arity-3 "
                         "first family")
    env = {"alpha": params.alpha[0]}
    for i, (b, g) in enumerate(zip(params.beta, params.gamma), start=1):
        env[f"beta{i}"] = b
        env[f"gamma{i}"] = g
    for i, e in enumerate(eps or (), start=1):
        env[f"eps{i}"] = float(e)
    return env


def _resolve(expr, env):
    total = 0.0
    for sign, tok in zip((1.0, -1.0), expr.split("-")):
        total += sign * env[tok]
    return total


def build_rule(desc: IntegralRepDescriptor, params: LauricellaParams,
               eps=None, n: int = 48) -> QuadratureRule:
    """Per-axis rules for the descriptor's exponent pairs; ParamError
    names the offending expression when a condition fails."""
    if len(eps or ()) != desc.n_eps:
        raise ParamError(f"representation {desc.id} needs {desc.n_eps} "
                         f"auxiliary value(s), got {len(eps or ())}")
    env = _env(params, eps)
    axes = []
    for p_expr, q_expr in desc.axis_exponents:
        p, q = _resolve(p_expr, env), _resolve(q_expr, env)
        if not p > 0.0:
            raise ParamError(f"condition violated: {p_expr} = {p:g} "
                             "must be positive")
        if not q > 0.0:
            raise ParamError(f"condition violated: {q_expr} = {q:g} "
                             "must be positive")
        axes.append(gauss_jacobi_rule(n, p, q))
    return QuadratureRule(tuple(axes))


def _prefactor(desc, params, eps):
    env = _env(params, eps)
    acc = 0.0
    for i, (p_expr, q_expr) in enumerate(desc.axis_exponents, start=1):
        acc += math.lgamma(env[f"gamma{i}"]) \
            - math.lgamma(_resolve(p_expr, env)) \
            - math.lgamma(_resolve(q_expr, env))
    return math.exp(acc)


# a kernel call holds a few arrays of chunk x (terms in one shell): two
# shells and their temporaries. The element budget bounds them at the
# largest shell the budget allows; the node cap keeps the short shells
# of r = 1, 2 in cache, where larger chunks ran slower
_BATCH_ELEMS = 1 << 21
_BATCH_NODES = 8192


def _chunk_nodes(r, s_max):
    """Nodes per kernel call: chunk x C(s_max + r - 1, r - 1), the terms
    in shell s_max, stays within _BATCH_ELEMS; at least one node."""
    size = math.comb(s_max + r - 1, r - 1)
    return max(1, min(_BATCH_NODES, _BATCH_ELEMS // size))


def _batch_family_a(alpha, betas, gammas, coords, s_max, q_cap):
    """Batched family-A values at many points, fixed parameters.
    coords: list of flat arrays, one per axis. Chunked; TruncationError
    if any node fails to converge within s_max shells."""
    r = len(betas)
    m = np.arange(s_max, dtype=np.float64)
    AS = alpha + m
    P = np.ascontiguousarray(
        np.stack([(b + m) / ((g + m) * (m + 1.0))
                  for b, g in zip(betas, gammas)]))
    n = coords[0].size
    out = np.empty(n)
    chunk = _chunk_nodes(r, s_max)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        part = [np.ascontiguousarray(c[lo:hi]) for c in coords]
        vals, ok = batch_shell_sum(r, AS, P, part, _BATCH_RTOL, q_cap, s_max)
        if not ok.all():
            raise TruncationError(
                f"{int((~ok).sum())} quadrature node(s) did not converge "
                f"within {s_max} shells")
        out[lo:hi] = vals
    return out


def _shell_budget(worst_norm):
    if worst_norm <= 0.5:
        return 64
    return min(600, 16 + int(-40.0 / math.log(worst_norm)))


def _check_margin(kind, norms):
    worst = float(np.max(norms)) if norms.size else 0.0
    if worst > 1.0 - _PRESCAN_MARGIN:
        raise DomainError(
            f"{kind} reaches norm {worst:.4f} at a quadrature node; "
            f"margin {_PRESCAN_MARGIN} required")
    return worst


def eval_integral_rep(desc: IntegralRepDescriptor, params: LauricellaParams,
                      point, rule: QuadratureRule | None = None,
                      eps=None, n: int = 48) -> float:
    """Gamma-ratio prefactor times the tensor quadrature sum. The node
    pre-scan rejects points whose kernel base or inner argument gets
    within the margin of its domain boundary."""
    if rule is None:
        rule = build_rule(desc, params, eps, n)
    env = _env(params, eps)
    x, y, z = (float(v) for v in point)
    al = env["alpha"]
    t1, t2, t3 = (a.nodes for a in rule.axes)
    w1, w2, w3 = (a.weights for a in rule.axes)
    T1 = t1[:, None, None]
    T2 = t2[None, :, None]
    T3 = t3[None, None, :]
    Ty = T1 if desc.kernel_variant == "verbatim" else T2
    shape = (t1.size, t2.size, t3.size)

    if desc.id == "5.2":
        G = 1.0 - y * T2 - z * T3          # printed correctly in this row
        _check_margin("power kernel base", 1.0 - G)
        u = x * T1 / G
        worst = _check_margin("inner argument", np.abs(u))
        f = _batch_family_a(al, (env["beta1"],), (env["eps1"],),
                            [np.broadcast_to(u, shape).ravel()],
                            _shell_budget(worst),
                            1.0 - (1.0 - worst) / 2.0).reshape(shape)
        integrand = G ** -al * f
    else:
        D = 1.0 - x * T1 - y * Ty - z * T3
        _check_margin("power kernel base", 1.0 - D)
        if desc.id == "5.1":
            integrand = D ** -al
        elif desc.id == "5.3":
            u = x * (1.0 - T1) / D
            v = y * (1.0 - T2) / D
            worst = _check_margin("inner argument", np.abs(u) + np.abs(v))
            f = _batch_family_a(
                al, (env["beta1"] - env["eps1"], env["beta2"] - env["eps2"]),
                (env["gamma1"] - env["eps1"], env["gamma2"] - env["eps2"]),
                [np.broadcast_to(u, shape).ravel(),
                 np.broadcast_to(v, shape).ravel()],
                _shell_budget(worst), 1.0 - (1.0 - worst) / 2.0
            ).reshape(shape)
            integrand = D ** -al * f
        else:
            u = x * (1.0 - T1) / D
            v = y * (1.0 - T2) / D
            w_ = z * (1.0 - T3) / D
            worst = _check_margin("inner argument",
                                  np.abs(u) + np.abs(v) + np.abs(w_))
            f = _batch_family_a(
                al,
                tuple(env[f"beta{i}"] - env[f"eps{i}"] for i in (1, 2, 3)),
                tuple(env[f"gamma{i}"] - env[f"eps{i}"] for i in (1, 2, 3)),
                [np.broadcast_to(a, shape).ravel() for a in (u, v, w_)],
                _shell_budget(worst), 1.0 - (1.0 - worst) / 2.0
            ).reshape(shape)
            integrand = D ** -al * f

    total = float(np.einsum("a,b,c,abc->", w1, w2, w3, integrand))
    return _prefactor(desc, params, eps) * total


def _variant_sweep(fid, params, xs, tol, rule, eps, n):
    """Series reference plus both kernel readings; shared by the single-
    and double-report checkers."""
    series = eval_lauricella(params, xs, EvalOptions(rel_tol=1e-15))
    denom = max(abs(series.value), TINY)
    vals = {}
    notes = []
    for variant in ("corrected", "verbatim"):
        try:
            v = eval_integral_rep(integral_rep(fid, variant), params,
                                  xs, rule, eps, n)
            vals[variant] = (v, abs(v - series.value) / denom)
            notes.append(f"{variant} rel err {vals[variant][1]:.3e}")
        except LauricellaError as exc:
            vals[variant] = (math.nan, math.inf)
            notes.append(f"{variant} failed - {type(exc).__name__}: {exc}")
    matching = [k for k, (_, e) in vals.items() if e <= tol]
    notes.append("matches: " + (", ".join(sorted(matching)) or "none"))
    return series, denom, vals, "; ".join(notes)


def _variant_report(fid, variant, binding, xs, series, denom, vals, note,
                    tol, n_nodes, point_index):
    rhs, rel = vals[variant]
    allowance = min(series.tail_estimate / denom, tol)
    return VerifyReport(
        formula_id=fid, kind="integral", binding=binding, point=xs,
        lhs=series.value, rhs=rhs, abs_err=abs(series.value - rhs),
        rel_err=rel, lhs_tail=series.tail_estimate, outer_terms=n_nodes,
        passed=rel <= tol + allowance, point_index=point_index,
        variant=variant,
        quarantined=fid != "5.2" and variant == "verbatim", note=note)


def cross_check(desc: IntegralRepDescriptor, params: LauricellaParams,
                point, tol: float = 1e-8, rule: QuadratureRule | None = None,
                eps=None, n: int = 48, point_index: int = 0) -> VerifyReport:
    """Integral value against the direct series; both kernel readings are
    evaluated and the note states which (if either) matches."""
    binding = dict(_env(params, eps))
    xs = tuple(float(v) for v in point)
    try:
        series, denom, vals, note = _variant_sweep(
            desc.id, params, xs, tol, rule, eps, n)
    except LauricellaError as exc:
        return VerifyReport(
            formula_id=desc.id, kind="integral", binding=binding, point=xs,
            lhs=math.nan, rhs=math.nan, abs_err=math.inf, rel_err=math.inf,
            passed=False, point_index=point_index,
            variant=desc.kernel_variant,
            note=f"series side failed - {type(exc).__name__}: {exc}")
    n_nodes = int(np.prod(rule.n)) if rule is not None else n ** 3
    return _variant_report(desc.id, desc.kernel_variant, binding, xs,
                           series, denom, vals, note, tol, n_nodes,
                           point_index)


def both_variant_reports(fid: str, params: LauricellaParams, point,
                         tol: float = 1e-8, eps=None, n: int = 48,
                         point_index: int = 0):
    """(corrected, verbatim) reports from one evaluation of each reading.
    The verbatim record carries the quarantine flag on the rows whose
    printed kernel repeats a node variable."""
    binding = dict(_env(params, eps))
    xs = tuple(float(v) for v in point)
    try:
        series, denom, vals, note = _variant_sweep(
            fid, params, xs, tol, None, eps, n)
    except LauricellaError as exc:
        note = f"series side failed - {type(exc).__name__}: {exc}"
        return tuple(
            VerifyReport(
                formula_id=fid, kind="integral", binding=binding, point=xs,
                lhs=math.nan, rhs=math.nan, abs_err=math.inf,
                rel_err=math.inf, passed=False, point_index=point_index,
                variant=variant, note=note)
            for variant in ("corrected", "verbatim"))
    return tuple(
        _variant_report(fid, variant, binding, xs, series, denom, vals,
                        note, tol, n ** 3, point_index)
        for variant in ("corrected", "verbatim"))


def sample_integral_cases(fid: str, n_cases: int, seed: int):
    """Deterministic (params, eps, point) triples satisfying the row's
    positivity conditions, with coordinates small enough that the node
    pre-scan margin holds for every admissible parameter draw."""
    _, _, _, n_eps = _AXIS_TEMPLATES[fid]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_cases):
        betas = rng.uniform(0.3, 1.2, 3)
        gammas = betas + rng.uniform(0.5, 1.5, 3)
        alpha = float(rng.uniform(0.3, 1.5))
        params = LauricellaParams(
            Family.A, 3, (round(alpha, 6),),
            tuple(round(float(b), 6) for b in betas),
            tuple(round(float(g), 6) for g in gammas))
        eps = tuple(round(float(rng.uniform(0.2, g - 0.2)), 6)
                    for g in params.gamma[:n_eps]) or None
        signs = rng.choice((-1.0, 1.0), size=3)
        point = tuple(round(float(s * v), 6)
                      for s, v in zip(signs, rng.uniform(0.03, 0.12, 3)))
        out.append((params, eps, point))
    return out
