import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_gauss_2f1, brute_lauricella
from lauricella.errors import (DomainError, ParamError, SingularParamError,
                               TruncationError)
from lauricella.series import (EvalOptions, Family, LauricellaParams,
                               eval_appell_f2, eval_gauss_2f1,
                               eval_lauricella, fd_at_unity,
                               in_convergence_domain, tail_bound)
from lauricella.series import _shell_cap_from_terms

# rel_tol this small never triggers the early stop, so the evaluator sums
# every shell up to degree_cap and the index set matches the brute oracle
_NO_STOP = 1e-300


def _params_for(fam, r, rng):
    a = rng.uniform(0.3, 1.8, r if fam is Family.B else 1)
    b = rng.uniform(0.3, 1.8, 1 if fam is Family.C else r)
    g = rng.uniform(0.8, 2.8, r if fam in (Family.A, Family.C) else 1)
    return LauricellaParams(fam, r, tuple(a), tuple(b), tuple(g))


def _point_for(fam, r, rng, scale=0.5):
    raw = rng.dirichlet(np.ones(r)) * scale
    if fam is Family.C:
        raw = raw ** 2
    elif fam in (Family.B, Family.D):
        raw = rng.uniform(0.1, scale, r)
    return tuple(float(s * v) for s, v in zip(rng.choice((-1, 1), r), raw))


class TestBruteOracle:
    @pytest.mark.parametrize("fam", list(Family))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_independent_sum(self, fam, r):
        rng = np.random.default_rng(hash((fam.name, r)) % 2 ** 31)
        for _ in range(3):
            params = _params_for(fam, r, rng)
            point = _point_for(fam, r, rng)
            cap = 24
            ours = eval_lauricella(
                params, point, EvalOptions(degree_cap=cap, rel_tol=_NO_STOP))
            ref = brute_lauricella(fam, params.alpha, params.beta,
                                   params.gamma, point, cap)
            assert ours.value == pytest.approx(ref, rel=5e-14)

    def test_appell_f2_is_family_a_arity_2(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b1, b2 = rng.uniform(0.3, 1.5, 3)
            g1, g2 = rng.uniform(0.9, 2.5, 2)
            x, y = rng.uniform(-0.35, 0.35, 2)
            via_f2 = eval_appell_f2(a, b1, b2, g1, g2, x, y)
            via_fa = eval_lauricella(
                LauricellaParams(Family.A, 2, (a,), (b1, b2), (g1, g2)),
                (x, y))
            assert via_f2.value == pytest.approx(via_fa.value, rel=1e-14)

    def test_gauss_2f1_matches_brute(self):
        val = eval_gauss_2f1(0.7, 1.3, 2.1, 0.35,
                             EvalOptions(degree_cap=40, rel_tol=_NO_STOP))
        assert val.value == pytest.approx(
            brute_gauss_2f1(0.7, 1.3, 2.1, 0.35, 40), rel=1e-14)


class TestReductions:
    @pytest.mark.parametrize("fam", list(Family))
    def test_arity_1_is_gauss(self, fam):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = rng.uniform(0.2, 2.0, 2)
            g = rng.uniform(0.7, 3.0)
            for z in np.linspace(-0.8, 0.8, 9):
                params = LauricellaParams(fam, 1, (a,), (b,), (g,))
                got = eval_lauricella(params, (float(z),)).value
                want = eval_gauss_2f1(a, b, g, float(z)).value
                assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("fam", list(Family))
    def test_zeroed_coordinates_drop_out(self, fam):
        # spec invariant: padding with x_i = 0 reproduces the 1-variable case
        a, b, g, z = 0.8, 0.5, 1.9, 0.4
        al = (a, 1.7, 0.9) if fam is Family.B else (a,)
        be = (b,) if fam is Family.C else (b, 0.6, 1.1)
        ga = (g, 1.5, 2.4) if fam in (Family.A, Family.C) else (g,)
        params = LauricellaParams(fam, 3, al, be, ga)
        got = eval_lauricella(params, (z, 0.0, 0.0)).value
        assert got == pytest.approx(eval_gauss_2f1(a, b, g, z).value,
                                    rel=1e-13)


class TestClosedForms:
    Z = [0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.4, -0.4, 0.5, -0.5]

    def test_binomial(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = float(rng.uniform(0.2, 2.5))
            b = float(rng.uniform(0.3, 2.0))
            for z in self.Z:
                got = eval_gauss_2f1(a, b, b, z).value
                assert got == pytest.approx((1 - z) ** -a, rel=1e-12)

    def test_log(self):
        for z in self.Z:
            got = eval_gauss_2f1(1.0, 1.0, 2.0, z).value
            assert got == pytest.approx(-math.log1p(-z) / z, rel=1e-12)

    def test_fd_binomial_degeneration(self):
        # alpha = gamma collapses family D to a product of binomials
        rng = np.random.default_rng(17)
        for _ in range(50):
            r = int(rng.integers(1, 4))
            g = float(rng.uniform(0.6, 2.4))
            betas = tuple(float(v) for v in rng.uniform(0.2, 1.6, r))
            point = tuple(float(v) for v in rng.uniform(-0.6, 0.6, r))
            params = LauricellaParams(Family.D, r, (g,), betas, (g,))
            got = eval_lauricella(params, point).value
            want = float(np.prod([(1 - x) ** -b
                                  for x, b in zip(point, betas)]))
            assert got == pytest.approx(want, rel=1e-12)

    def test_fd_at_unity_closed_form(self):
        params = LauricellaParams(Family.D, 2, (0.4,), (0.3, 0.35), (2.6,))
        got = fd_at_unity(params)
        g, a, bsum = 2.6, 0.4, 0.65
        want = (math.gamma(g) * math.gamma(g - a - bsum)
                / (math.gamma(g - a) * math.gamma(g - bsum)))
        assert got == pytest.approx(want, rel=1e-14)

    def test_fd_at_unity_vs_near_boundary_series(self):
        # boundary convergence is slow; 1e-3 agreement is the sanity bar
        params = LauricellaParams(Family.D, 1, (0.3,), (0.2,), (2.25,))
        limit = fd_at_unity(params)
        opts = EvalOptions(degree_cap=60_000, rel_tol=1e-13,
                           max_terms=1_000_000)
        near = eval_lauricella(params, (0.999,), opts)
        assert near.converged_flag
        assert abs(near.value - limit) / abs(limit) <= 1e-3

    def test_fd_at_unity_monotone_approach(self):
        params = LauricellaParams(Family.D, 2, (0.5,), (0.3, 0.2), (3.0,))
        limit = fd_at_unity(params)
        opts = EvalOptions(degree_cap=1900, rel_tol=1e-7,
                           max_terms=2_000_000)
        v99 = eval_lauricella(params, (0.99, 0.99), opts).value
        v999 = eval_lauricella(params, (0.999, 0.999), opts).value
        assert v99 < v999 < limit           # all-positive terms
        assert abs(v999 - limit) < abs(v99 - limit)
        assert abs(v999 - limit) / limit <= 1e-2

    def test_fd_at_unity_guards(self):
        with pytest.raises(ParamError):
            fd_at_unity(LauricellaParams(Family.D, 1, (2.0,), (1.5,), (3.0,)))
        with pytest.raises(ParamError):
            fd_at_unity(LauricellaParams(Family.A, 1, (0.2,), (0.2,), (3.0,)))


class TestSymmetry:
    @pytest.mark.parametrize("fam", list(Family))
    def test_axis_permutation(self, fam):
        rng = np.random.default_rng(23)
        for _ in range(5):
            params = _params_for(fam, 3, rng)
            point = _point_for(fam, 3, rng)
            base = eval_lauricella(params, point).value
            perm = [2, 0, 1]
            pa = params.alpha if len(params.alpha) == 1 else \
                tuple(params.alpha[i] for i in perm)
            pb = params.beta if len(params.beta) == 1 else \
                tuple(params.beta[i] for i in perm)
            pg = params.gamma if len(params.gamma) == 1 else \
                tuple(params.gamma[i] for i in perm)
            swapped = eval_lauricella(
                LauricellaParams(fam, 3, pa, pb, pg),
                tuple(point[i] for i in perm)).value
            assert swapped == pytest.approx(base, rel=5e-15)


class TestTermination:
    def test_negative_integer_numerators_terminate(self):
        # beta = (-3, -2) kills every term beyond (3, 2): a polynomial
        params = LauricellaParams(Family.D, 2, (0.7,), (-3.0, -2.0), (2.1,))
        res = eval_lauricella(params, (0.6, 0.2))
        assert res.converged_flag
        assert res.tail_estimate == 0.0
        ref = brute_lauricella(Family.D, params.alpha, params.beta,
                               params.gamma, (0.6, 0.2), 10)
        assert res.value == pytest.approx(ref, rel=1e-14)

    def test_partial_truncation_still_converges(self):
        # beta_1 = -3 truncates only the x-direction; the sum stays infinite
        params = LauricellaParams(Family.D, 2, (0.7,), (-3.0, 0.4), (2.1,))
        res = eval_lauricella(params, (0.6, 0.2))
        assert res.converged_flag
        ref = brute_lauricella(Family.D, params.alpha, params.beta,
                               params.gamma, (0.6, 0.2), 40)
        assert res.value == pytest.approx(ref, rel=1e-13)

    def test_polynomial_case_exact(self):
        params = LauricellaParams(Family.A, 1, (-2.0,), (1.0,), (1.0,))
        res = eval_lauricella(params, (0.3,))
        # (-2)_k/(k!) * (1)_k/(1)_k: 1 - 2x + x^2 = (1-x)^2
        assert res.value == pytest.approx(0.49, rel=1e-15)
        assert res.tail_estimate == 0.0


class TestDomain:
    def test_outside_raises(self):
        cases = [
            (Family.A, (0.6, 0.5)),      # sum |x| >= 1
            (Family.B, (0.2, 1.05)),     # max |x| >= 1
            (Family.C, (0.3, 0.3)),      # sum sqrt >= 1
            (Family.D, (-1.2, 0.1)),
        ]
        for fam, pt in cases:
            params = _params_for(fam, 2, np.random.default_rng(1))
            with pytest.raises(DomainError):
                eval_lauricella(params, pt)

    def test_boundary_rejected(self):
        params = _params_for(Family.D, 2, np.random.default_rng(2))
        with pytest.raises(DomainError):
            eval_lauricella(params, (1.0, 0.2))

    def test_domain_predicate(self):
        inside, margin = in_convergence_domain(Family.A, (0.3, 0.4))
        assert inside and margin == pytest.approx(0.3)
        inside, margin = in_convergence_domain(Family.C, (0.09, 0.16))
        assert inside and margin == pytest.approx(0.3)
        assert not in_convergence_domain(Family.B, (0.2, 1.0))[0]

    @given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=1,
                    max_size=4))
    def test_domain_predicate_properties(self, xs):
        for fam, norm in ((Family.A, sum(abs(v) for v in xs)),
                          (Family.B, max(abs(v) for v in xs)),
                          (Family.C, sum(math.sqrt(abs(v)) for v in xs)),
                          (Family.D, max(abs(v) for v in xs))):
            inside, margin = in_convergence_domain(fam, xs)
            assert inside == (norm < 1.0)
            assert margin == pytest.approx(1.0 - norm, abs=1e-12)


class TestDiagnostics:
    def test_shell_magnitudes_eventually_decreasing(self):
        rng = np.random.default_rng(31)
        for fam in Family:
            params = _params_for(fam, 2, rng)
            point = _point_for(fam, 2, rng, scale=0.45)
            res = eval_lauricella(params, point)
            mags = res.shell_magnitudes
            n = len(mags)
            tail = mags[n // 2:]
            assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_tail_bound_zero_point(self):
        params = LauricellaParams(Family.A, 2, (0.5,), (0.4, 0.6), (1.2, 1.7))
        assert tail_bound(params, (0.0, 0.0), 5) == 0.0

    def test_tail_bound_geometric(self):
        # alpha = 1, beta = gamma makes family D at r = 1 exactly geometric:
        # shells |x|^s, ratio 1/2, so the bound equals the true tail
        params = LauricellaParams(Family.D, 1, (1.0,), (0.8,), (0.8,))
        for n in (4, 8, 12):
            b = tail_bound(params, (0.5,), n)
            assert b == pytest.approx(0.5 ** n, rel=1e-12)
        # with a single observed ratio there is no direction evidence, so
        # the clamp takes over: 0.5 * q_cap/(1 - q_cap) at margin 1/2
        assert tail_bound(params, (0.5,), 1) == pytest.approx(1.5, rel=1e-12)

    def test_tail_bound_covers_reference_example(self):
        params = LauricellaParams(Family.D, 2, (0.5,), (0.3, 0.2), (3.0,))
        point = (0.25, 0.25)
        oracle = eval_lauricella(
            params, point, EvalOptions(degree_cap=200, rel_tol=_NO_STOP))
        cut = eval_lauricella(
            params, point, EvalOptions(degree_cap=40, rel_tol=_NO_STOP))
        discarded = abs(oracle.value - cut.value)
        assert discarded <= tail_bound(params, point, 40)
        assert discarded <= cut.tail_estimate

    def test_tail_estimate_tracks_discarded_mass(self):
        # heuristic estimator: right order, never off by more than 2x low
        rng = np.random.default_rng(37)
        for fam in Family:
            for _ in range(5):
                params = _params_for(fam, 2, rng)
                point = _point_for(fam, 2, rng, scale=0.45)
                ref = eval_lauricella(params, point,
                                      EvalOptions(rel_tol=1e-15))
                cut = eval_lauricella(
                    params, point,
                    EvalOptions(degree_cap=12, rel_tol=_NO_STOP))
                discarded = abs(ref.value - cut.value)
                assert discarded <= 2.0 * cut.tail_estimate \
                    + 1e-15 * abs(ref.value)

    def test_tail_bound_guards(self):
        params = LauricellaParams(Family.A, 1, (0.5,), (0.4,), (1.2,))
        with pytest.raises(DomainError):
            tail_bound(params, (1.2,), 5)
        with pytest.raises(ValueError):
            tail_bound(params, (0.3,), 0)

    def test_max_terms_guard(self):
        params = _params_for(Family.A, 3, np.random.default_rng(41))
        with pytest.raises(TruncationError):
            eval_lauricella(params, (0.3, 0.3, 0.3),
                            EvalOptions(degree_cap=120, rel_tol=1e-14,
                                        max_terms=20))


class TestShellCap:
    @staticmethod
    def _loop(r, max_terms, degree_cap):
        # the shell cap as first written: step S up while the cumulative
        # term count C(S + 1 + r, r) stays within max_terms
        s = 0
        while s < degree_cap and math.comb(s + 1 + r, r) <= max_terms:
            s += 1
        return s

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_matches_loop(self, r):
        for max_terms in (1, 2, 7, 100, 4_000, 123_456, 2_000_000, 10 ** 9):
            for degree_cap in (1, 2, 3, 17, 120, 600, 2000):
                assert _shell_cap_from_terms(r, max_terms, degree_cap) \
                    == self._loop(r, max_terms, degree_cap)


class TestValidation:
    def test_singular_gamma(self):
        for g in (0.0, -2.0):
            with pytest.raises(SingularParamError):
                LauricellaParams(Family.D, 1, (0.5,), (0.4,), (g,))

    def test_shape_mismatch(self):
        with pytest.raises(ParamError):
            LauricellaParams(Family.A, 2, (0.5, 0.6), (0.4, 0.4), (1.0, 1.0))

    def test_gauss_guards(self):
        with pytest.raises(ParamError):
            eval_gauss_2f1(0.5, 0.5, -1.0, 0.3)
        with pytest.raises(DomainError):
            eval_gauss_2f1(0.5, 0.5, 1.5, 1.0)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            EvalOptions(degree_cap=0)
        with pytest.raises(ValueError):
            EvalOptions(rel_tol=0.0)
