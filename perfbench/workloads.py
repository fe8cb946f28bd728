"""The three workloads: seeded inputs, one timed round, output checks.

Each workload object is built from the seed (input generation), warmed
up once, then ``run_round`` is called repeatedly by ``run.py``; each call
does the same fixed amount of work and returns one list of outcomes.
``check`` runs after the timed phase and compares every outcome with
values computed apart from the package (``oracle``) and with the
properties the package promises. It returns (attempted, failed, correct,
notes).
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import lauricella as L
from lauricella import cli, decompositions, identities, taylor

# relative distance from the oracle beyond which an eval call that
# claims convergence counts as failed; the package promises 1e-14
EVAL_TOL = 1e-12
# tolerances of tests/test_acceptance.py for the same properties
IDENTITY_TOL = 1e-10         # criterion 4, coefficient-level rows
CLOSURE_TOL = 1e-10          # criterion 5, route spread
INVERSE_TOL = 1e-12          # criterion 3, H then Hbar round trip
QUARANTINE_MIN_ERR = 1e-4    # criterion 6, printed rows fail by this much


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# eval_mix
# ---------------------------------------------------------------------------

# near-boundary points with negative coordinates where the package today
# reports convergence with a wrong value (the tail ignores rounding from
# sign cancellation); fixed, so the failed count does not depend on the seed
FAULT_CASES = (
    ("D", (2.5,), (1.3, 1.7), (0.6,), (-0.95, -0.95)),
    ("A", (2.5,), (1.7, 2.1), (0.6, 0.7), (-0.6, -0.35)),
    ("C", (2.3,), (1.8,), (0.4, 0.5), (-0.24, -0.24)),
)
FAULT_CAP = 2000

# (arity, norm band, cases per family, degree cap or None). Seeded points
# have nonnegative coordinates: with positive parameters every term is
# then positive, so no sign cancellation. With random signs the fault
# above also hits some seeded points (a zero of the function nearby is
# enough), and the failed count would depend on the seed. None is the
# default EvalOptions, which converge in the near and mid bands; the far
# bands raise the degree cap, since the default cap of 120 shells stops
# short there. r = 3 stops at 0.7, beyond which the max_terms guard
# raises; r = 4 stops at 0.07, since the generic kernel's cost grows so
# steeply with the norm that the round's time would vary with the seed.
MIX_CELLS = (
    (1, (0.02, 0.25), 4, None),
    (1, (0.25, 0.55), 4, None),
    (1, (0.55, 0.9), 4, 2000),
    (2, (0.02, 0.25), 4, None),
    (2, (0.25, 0.55), 4, None),
    (2, (0.55, 0.9), 4, 2000),
    (3, (0.02, 0.25), 4, None),
    (3, (0.25, 0.55), 4, None),
    (3, (0.55, 0.7), 4, 2000),
    (4, (0.04, 0.07), 2, None),
)
PARAM_RANGE = (0.3, 2.5)

_SHAPE = {"A": (1, "r", "r"), "B": ("r", "r", 1), "C": (1, 1, "r"),
          "D": (1, "r", 1)}


def _draw_point(fam, r, norm, rng):
    """A nonnegative point at the given family norm: sum x for A, max x
    for B and D, sum sqrt x for C."""
    if fam in "BD":
        x = rng.uniform(0.0, norm, r)
        x[rng.integers(r)] = norm
    else:
        w = rng.dirichlet(np.ones(r))
        x = norm * w if fam == "A" else (norm * w) ** 2
    return tuple(round(float(v), 6) for v in x)


def _draw_params(fam, r, rng):
    sizes = [r if s == "r" else 1 for s in _SHAPE[fam]]
    return tuple(tuple(round(float(v), 4)
                       for v in rng.uniform(*PARAM_RANGE, n))
                 for n in sizes)


class EvalMix:
    """Closed loop of independent eval_lauricella calls from one caller."""

    name = "eval_mix"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        cases = []
        for r, band, per_family, cap in MIX_CELLS:
            for fam in "ABCD":
                # one norm per equal slice of the band (jittered), so the
                # mix of cheap and costly calls varies little with the seed
                for k in range(per_family):
                    lo, hi = band
                    norm = lo + (hi - lo) * (k + float(rng.random())) \
                        / per_family
                    params = _draw_params(fam, r, rng)
                    point = _draw_point(fam, r, norm, rng)
                    cases.append((fam,) + params + (point, cap))
        for fam, al, be, ga, point in FAULT_CASES:
            cases.append((fam, al, be, ga, point, FAULT_CAP))
        order = rng.permutation(len(cases))
        self.cases = [cases[i] for i in order]
        self.fault_index = {i for i, c in enumerate(self.cases)
                            if c[:5] in FAULT_CASES}
        self.calls = []
        for fam, al, be, ga, point, cap in self.cases:
            params = L.LauricellaParams(L.Family(fam), len(point), al, be, ga)
            opts = L.EvalOptions(degree_cap=cap) if cap else L.EvalOptions()
            self.calls.append((params, point, opts))
        self.op_times = []

    def warm_up(self):
        for params, point, opts in self.calls[:8]:
            L.eval_lauricella(params, point, opts)

    def run_round(self, clock):
        out = []
        times = self.op_times
        for params, point, opts in self.calls:
            t0 = clock()
            try:
                res = L.eval_lauricella(params, point, opts)
                got = (res.value, res.converged_flag, res.shells_used)
            except L.LauricellaError as exc:
                got = (math.nan, False, type(exc).__name__)
            times.append(clock() - t0)
            out.append(got)
        return out

    def check(self, rounds):
        import oracle
        refs = [float(oracle.reference_value(*c[:5])) for c in self.cases]
        attempted = failed = 0
        correct = True
        notes = []
        failing = set()
        for outcome in rounds:
            if repr(outcome) != repr(rounds[0]):
                correct = False
                notes.append("results changed between rounds")
            for i, (value, converged, shells) in enumerate(outcome):
                attempted += 1
                err = _rel(value, refs[i]) if converged else math.inf
                if not err <= EVAL_TOL:
                    failed += 1
                    failing.add(i)
        for i in sorted(failing):
            value, converged, shells = rounds[0][i]
            tag = "fault band" if i in self.fault_index else "SEEDED"
            notes.append(
                f"failed ({tag}): F_{self.cases[i][0]} at {self.cases[i][4]}"
                f" converged={converged} shells={shells} rel err "
                f"{_rel(value, refs[i]):.2e}")
        return attempted, failed, correct, notes


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

VERIFY_SEED = 7
# one point per formula keeps a round between 5 and 10 s, so a run repeats it
VERIFY_POINTS = 1
VERIFY_TOL = 1e-8            # the verify command's default --tol
LHS_SAMPLE = 12
REPORT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _lhs_case(rec, desc_by_id):
    """(family, alpha, beta, gamma, point) of a record whose left side is
    the plain family value, or None."""
    if rec["kind"] == "operator":
        return None
    b = {k: float(v) for k, v in rec["binding"].items()}
    point = tuple(float(v) for v in rec["point"])
    r = len(point)
    if rec["kind"] == "integral":
        fam = "A"
    else:
        desc = desc_by_id[rec["formula_id"]]
        if desc.lhs_kind != "lauricella":
            return None
        fam = desc.family.value
    vec = lambda name: tuple(b[f"{name}{i}"] for i in range(1, r + 1))
    one = lambda name: (b[name],)
    alpha = vec("alpha") if fam == "B" else one("alpha")
    beta = one("beta") if fam == "C" else vec("beta")
    gamma = vec("gamma") if fam in "AC" else one("gamma")
    return fam, alpha, beta, gamma, point


class VerifyAll:
    """``lauricella verify --all`` through cli.main at a fixed seed."""

    name = "verify_all"

    def __init__(self, seed):
        os.makedirs(REPORT_DIR, exist_ok=True)
        self.path = os.path.join(REPORT_DIR, "verify_all_report.json")
        self.argv = ["verify", "--all", "--seed", str(VERIFY_SEED),
                     "--points", str(VERIFY_POINTS), "--output", self.path]
        self.rng = np.random.default_rng(seed)
        self.op_times = []

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "2.25", "--seed", "1", "--points", "1",
                      "--output", os.path.join(REPORT_DIR, "warm_up.json")])

    def run_round(self, clock):
        t0 = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        self.op_times.append(clock() - t0)
        with open(self.path) as fh:
            return [(code, json.load(fh))]

    def check(self, rounds):
        import oracle
        attempted = failed = 0
        correct = True
        notes = []
        desc_by_id = {d.id: d for d in decompositions.list_formulas()}
        for (code, doc), in rounds:
            recs = doc["records"]
            bad = [r for r in recs if not r["passed"] and not r["quarantined"]]
            attempted += len(recs)
            failed += len(bad)
            if doc["summary"]["failed"] != len(bad) or \
                    code != (1 if bad else 0):
                correct = False
                notes.append("report summary or exit code disagrees with "
                             "the records")
            twins = {(r["kind"], r["formula_id"], r["point_index"]): r
                     for r in recs if r["variant"] == "corrected"}
            quarantined = [r for r in recs if r["quarantined"]]
            if not quarantined:
                correct = False
                notes.append("no quarantined rows in the report")
            for r in quarantined:
                twin = twins.get((r["kind"], r["formula_id"],
                                  r["point_index"]))
                # criterion 6 asks printed decomposition rows to miss by
                # 1e-4; criterion 8 asks printed kernels only to fail
                min_err = QUARANTINE_MIN_ERR \
                    if r["kind"] == "decomposition" else VERIFY_TOL
                if r["passed"] or not float(r["rel_err"]) > min_err \
                        or twin is None or not twin["passed"]:
                    correct = False
                    notes.append(f"quarantined row {r['formula_id']} "
                                 f"#{r['point_index']} is not a clean "
                                 "misprint (printed fails, corrected passes)")
        eligible = [(r, c) for r in rounds[0][0][1]["records"]
                    if r["variant"] != "verbatim"
                    for c in [_lhs_case(r, desc_by_id)] if c is not None]
        pick = self.rng.choice(len(eligible), size=min(LHS_SAMPLE,
                                                       len(eligible)),
                               replace=False)
        for i in sorted(pick):
            rec, case = eligible[i]
            ref = float(oracle.reference_value(*case))
            err = _rel(float(rec["lhs"]), ref)
            if not err <= EVAL_TOL:
                correct = False
                notes.append(f"left side of {rec['formula_id']} "
                             f"#{rec['point_index']} misses the oracle by "
                             f"{err:.2e}")
        notes.append(f"left sides checked against the oracle: {len(pick)} "
                     f"of {len(eligible)}")
        return attempted, failed, correct, notes


# ---------------------------------------------------------------------------
# operator_chain
# ---------------------------------------------------------------------------

IDENTITY_CAP = 16
CLOSURE_N_OUTER = 8
# the closure point has |x_i| <= 0.05, so degree 12 leaves terms below
# 1e-16 and the outer degree 8 leaves the route spread near 1e-14
CLOSURE_CAP = 12
INVERSE_CASES = 4
INVERSE_CAP = 16


def _binding(desc, r, rng):
    """Slot values in [0.35, 2.35] for every slot an identity may read."""
    names = {"alpha", "gamma", "beta"}
    names |= {f"beta{i}" for i in range(1, r + 1)}
    names |= {f"gamma{i}" for i in range(1, r + 1)}
    if desc.family is L.Family.B:
        names |= {f"alpha{i}" for i in range(1, r + 1)}
    names |= set(desc.free_slots)
    binding = {nm: round(float(rng.uniform(0.35, 2.35)), 6)
               for nm in sorted(names)}
    if desc.arity is None:
        binding["r"] = r
    return binding


def _coefficient(fam, al, be, ga, m):
    """Taylor coefficient of the family series at multi-index m, in
    mpmath, from the term definition."""
    import mpmath as mp
    n = sum(m)
    c = mp.mpf(1)
    for mi in m:
        c /= mp.factorial(mi)
    if fam == "A":
        c *= mp.rf(al[0], n)
        for b, g, mi in zip(be, ga, m):
            c *= mp.rf(b, mi) / mp.rf(g, mi)
    elif fam == "B":
        c /= mp.rf(ga[0], n)
        for a, b, mi in zip(al, be, m):
            c *= mp.rf(a, mi) * mp.rf(b, mi)
    elif fam == "C":
        c *= mp.rf(al[0], n) * mp.rf(be[0], n)
        for g, mi in zip(ga, m):
            c /= mp.rf(g, mi)
    else:
        c *= mp.rf(al[0], n) / mp.rf(ga[0], n)
        for b, mi in zip(be, m):
            c *= mp.rf(b, mi)
    return c


class OperatorChain:
    """Coefficient-level operator identities, the derivation-chain
    closure, and H / Hbar inverse pairs on built series."""

    name = "operator_chain"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.identity_ops = []
        descs = [d for d in identities.list_operator_identities()
                 if not d.delegated]
        for k, desc in enumerate(descs):
            r = desc.arity if desc.arity is not None else 2 + k % 2
            self.identity_ops.append((desc, _binding(desc, r, rng), k))
        betas = tuple(round(float(v), 4) for v in rng.uniform(0.4, 1.4, 3))
        eps = tuple(round(float(v), 4) for v in rng.uniform(0.8, 1.8, 3))
        alpha = round(float(rng.uniform(0.5, 1.5)), 4)
        gamma = round(float(rng.uniform(1.6, 2.6)), 4)
        point = tuple(round(float(v), 6) for v in
                      rng.uniform(0.02, 0.05, 3) * rng.choice((-1, 1), 3))
        self.closure = (alpha, betas, eps, gamma, point)
        self.inverse_ops = []
        for k in range(INVERSE_CASES):
            fam = "ABCD"[k]
            r = 2 + k % 2
            al, be, ga = _draw_params(fam, r, rng)
            vars_ = tuple(range(1, r + 1))
            a, b = (round(float(v), 4) for v in rng.uniform(0.4, 2.4, 2))
            self.inverse_ops.append((fam, al, be, ga, vars_, a, b))
        self.op_times = []

    def warm_up(self):
        desc, binding, k = self.identity_ops[0]
        identities.verify_operational_identity(desc, binding, cap=4,
                                               tol=IDENTITY_TOL)

    def _timed(self, clock, fn):
        t0 = clock()
        out = fn()
        self.op_times.append(clock() - t0)
        return out

    def run_round(self, clock):
        out = []
        for desc, binding, k in self.identity_ops:
            rep = self._timed(clock, lambda: identities.
                              verify_operational_identity(
                                  desc, binding, cap=IDENTITY_CAP,
                                  tol=IDENTITY_TOL, point_index=k))
            out.append(("identity", desc.id, k, rep.rel_err, rep.passed))
        alpha, betas, eps, gamma, point = self.closure
        routes = self._timed(clock, lambda: identities.
                             derivation_chain_closure(
                                 alpha, betas, eps, gamma, point,
                                 n_outer=CLOSURE_N_OUTER, cap=CLOSURE_CAP,
                                 opts=L.EvalOptions(degree_cap=80)))
        out.append(("closure", routes["direct"], routes["operator"],
                    routes["closed"]))
        for fam, al, be, ga, vars_, a, b in self.inverse_ops:
            def pair():
                params = L.LauricellaParams(L.Family(fam), len(vars_),
                                            al, be, ga)
                s = taylor.build_series(params, INVERSE_CAP)
                back = taylor.apply_Hbar(taylor.apply_H(s, vars_, a, b),
                                         vars_, a, b)
                return s, back
            s, back = self._timed(clock, pair)
            worst = max((abs(s.coeff(m) - back.coeff(m))
                         / max(1.0, abs(s.coeff(m)))
                         for m in set(s.coeffs) | set(back.coeffs)),
                        default=0.0)
            out.append(("inverse", fam, worst, dict(s.coeffs)))
        return out

    def check(self, rounds):
        import oracle
        attempted = failed = 0
        correct = True
        notes = []
        alpha, betas, eps, gamma, point = self.closure
        direct_ref = float(oracle.reference_value(
            "D", (alpha,), betas, (gamma,), point))
        for outcome in rounds:
            if repr(outcome) != repr(rounds[0]):
                correct = False
                notes.append("results changed between rounds")
            for item in outcome:
                attempted += 1
                if item[0] == "identity":
                    _, fid, k, rel, passed = item
                    ok = passed and rel <= IDENTITY_TOL
                    if not ok:
                        notes.append(f"identity {fid} binding {k}: rel err "
                                     f"{rel:.2e}")
                elif item[0] == "closure":
                    _, direct, op_route, closed = item
                    spread = max(_rel(op_route, direct), _rel(closed, direct),
                                 _rel(op_route, closed))
                    oracle_err = _rel(direct, direct_ref)
                    ok = spread <= CLOSURE_TOL and oracle_err <= EVAL_TOL
                    if not ok:
                        notes.append(f"closure: route spread {spread:.2e}, "
                                     f"direct vs oracle {oracle_err:.2e}")
                else:
                    _, fam, worst, coeffs = item
                    ok = worst <= INVERSE_TOL
                    if not ok:
                        notes.append(f"inverse pair on F_{fam}: round trip "
                                     f"off by {worst:.2e}")
                failed += not ok
        # the built series the inverse pairs start from, coefficient by
        # coefficient against the term definition
        built = [item[3] for item in rounds[0] if item[0] == "inverse"]
        for (fam, al, be, ga, _, _, _), coeffs in zip(self.inverse_ops, built):
            with oracle.mp.workdps(oracle.DPS):
                worst = max(_rel(c, float(_coefficient(fam, al, be, ga, m)))
                            for m, c in coeffs.items())
            if not worst <= INVERSE_TOL:
                correct = False
                notes.append(f"built F_{fam} series misses the term "
                             f"definition by {worst:.2e}")
        return attempted, failed, correct, notes


WORKLOADS = {w.name: w for w in (EvalMix, VerifyAll, OperatorChain)}
