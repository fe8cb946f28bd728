import math

import numpy as np
import pytest
from scipy.special import hyp2f1

from lauricella.errors import DomainError, ParamError
from lauricella.quadrature import (_BATCH_ELEMS, _BATCH_NODES, _chunk_nodes,
                                   _shell_budget,
                                   both_variant_reports, build_rule,
                                   cross_check, eval_integral_rep,
                                   gauss_jacobi_rule, integral_rep,
                                   list_integral_reps,
                                   sample_integral_cases)
from lauricella.series import (EvalOptions, Family, LauricellaParams,
                               eval_lauricella)

IDS = ("5.1", "5.2", "5.3", "5.4")
VERBATIM_DIFFERS = ("5.1", "5.3", "5.4")


def _params(eps_needed):
    params = LauricellaParams(Family.A, 3, (0.9,), (0.6, 0.8, 0.7),
                              (1.7, 1.9, 1.5))
    eps = (0.9, 1.1, 0.8)[:eps_needed] or None
    return params, eps


class TestRule:
    @pytest.mark.parametrize("n,p,q", [(4, 1.0, 1.0), (8, 0.6, 2.3),
                                       (16, 2.5, 0.4)])
    def test_moments(self, n, p, q):
        axis = gauss_jacobi_rule(n, p, q)
        assert np.all((axis.nodes > 0) & (axis.nodes < 1))
        assert np.all(axis.weights > 0)
        for k in range(2 * n):
            got = float(axis.weights @ axis.nodes ** k)
            want = math.exp(math.lgamma(p + k) + math.lgamma(q)
                            - math.lgamma(p + q + k))
            assert got == pytest.approx(want, rel=1e-12), k

    def test_validation(self):
        for bad in ((0, 1.0, 1.0), (4, 0.0, 1.0), (4, 1.0, -0.5)):
            with pytest.raises(ParamError):
                gauss_jacobi_rule(*bad)

    def test_condition_violation_names_expression(self):
        desc = integral_rep("5.1")
        params = LauricellaParams(Family.A, 3, (0.9,), (2.0, 0.8, 0.7),
                                  (1.4, 1.9, 1.5))     # gamma1 < beta1
        with pytest.raises(ParamError, match="gamma1-beta1"):
            build_rule(desc, params, None, 8)


class TestDescriptors:
    def test_catalog(self):
        recs = list_integral_reps()
        assert [d.id for d in recs] == list(IDS)
        with pytest.raises(KeyError):
            integral_rep("5.9")
        corr = integral_rep("5.3")
        verb = integral_rep("5.3", variant="verbatim")
        assert corr.kernel_variant == "corrected"
        assert verb.kernel_variant == "verbatim"
        with pytest.raises(ValueError):
            integral_rep("5.1", variant="nonsense")


class TestAccuracy:
    @pytest.mark.parametrize("fid", IDS)
    def test_origin_is_one(self, fid):
        desc = integral_rep(fid)
        params, eps = _params(desc.n_eps)
        val = eval_integral_rep(desc, params, (0.0, 0.0, 0.0), eps=eps, n=12)
        assert val == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("fid", IDS)
    def test_corrected_matches_series(self, fid):
        for i, (params, eps, point) in enumerate(
                sample_integral_cases(fid, 2, int(fid.replace(".", "")))):
            rep = cross_check(integral_rep(fid), params, point, tol=1e-8,
                              eps=eps, point_index=i)
            assert rep.passed, (fid, i, rep.rel_err, rep.note)
            assert not rep.quarantined

    def test_node_count_convergence(self):
        desc = integral_rep("5.1")
        params, eps = _params(desc.n_eps)
        point = (0.35, -0.25, 0.2)
        ref = eval_lauricella(params, point,
                              EvalOptions(degree_cap=400)).value
        errs = [abs(eval_integral_rep(desc, params, point, n=n) - ref)
                / abs(ref) for n in (2, 3, 4, 6, 48)]
        assert all(a > b for a, b in zip(errs[:4], errs[1:4]))
        assert errs[-1] <= 1e-10

    def test_degenerate_point_matches_gauss(self):
        desc = integral_rep("5.1")
        params, _ = _params(0)
        val = eval_integral_rep(desc, params, (0.4, 0.0, 0.0), n=48)
        want = float(hyp2f1(params.alpha[0], params.beta[0],
                            params.gamma[0], 0.4))
        assert val == pytest.approx(want, rel=1e-12)


class TestKernelVariants:
    POINT = (0.12, -0.08, 0.15)

    @pytest.mark.parametrize("fid", VERBATIM_DIFFERS)
    def test_verbatim_kernel_is_off(self, fid):
        desc = integral_rep(fid)
        params, eps = _params(desc.n_eps)
        corr, verb = both_variant_reports(fid, params, self.POINT, eps=eps)
        assert corr.passed and not corr.quarantined
        assert verb.quarantined
        assert not verb.passed
        assert verb.rel_err > 1e-4

    def test_row_with_correct_kernel(self):
        desc = integral_rep("5.2")
        params, eps = _params(desc.n_eps)
        corr, verb = both_variant_reports("5.2", params, self.POINT, eps=eps)
        assert corr.passed and verb.passed
        assert not verb.quarantined
        rep = cross_check(desc, params, self.POINT, eps=eps)
        assert "matches: corrected, verbatim" in rep.note

    def test_special_parameter_reductions(self):
        # eps slots equal to the betas collapse the inner functions, so
        # the three-eps and no-eps rows integrate the same kernel
        params, _ = _params(0)
        base = eval_integral_rep(integral_rep("5.1"), params,
                                 self.POINT, n=24)
        via_54 = eval_integral_rep(integral_rep("5.4"), params, self.POINT,
                                   eps=params.beta, n=24)
        via_52 = eval_integral_rep(integral_rep("5.2"), params, self.POINT,
                                   eps=(params.beta[0],), n=24)
        assert via_54 == pytest.approx(base, rel=1e-13)
        assert via_52 == pytest.approx(base, rel=1e-13)


class TestDomainGuards:
    def test_point_outside_prescan(self):
        desc = integral_rep("5.1")
        params, _ = _params(0)
        with pytest.raises(DomainError):
            eval_integral_rep(desc, params, (0.5, 0.4, 0.3), n=8)

    def test_missing_eps(self):
        desc = integral_rep("5.4")
        params, _ = _params(0)
        with pytest.raises(ParamError):
            eval_integral_rep(desc, params, (0.05, 0.05, 0.05), n=8)


class TestBatchChunk:
    def test_worst_budget_stays_bounded(self):
        # the worst admitted node norm (1 - the pre-scan margin) gives the
        # largest shell budget; one r = 3 shell there has C(602, 2) terms
        s_max = _shell_budget(0.95)
        assert s_max == 600
        size = math.comb(s_max + 2, 2)
        chunk = _chunk_nodes(3, s_max)
        assert 1 <= chunk and chunk * size <= _BATCH_ELEMS
        # two shells of the chunk stay far below the 1.5 GB that a fixed
        # chunk of 256 full (s_max + 1)^2 squares would take
        assert 2 * chunk * size * 8 < 64 * 2 ** 20

    def test_small_shells_fill_the_budget(self):
        size = math.comb(64 + 2, 2)
        assert _chunk_nodes(3, 64) == _BATCH_ELEMS // size
        # short shells are capped by a node count instead
        assert _chunk_nodes(1, 64) == _chunk_nodes(2, 64) == _BATCH_NODES
