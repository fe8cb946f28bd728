import math

import numpy as np
import pytest

from lauricella import kernels
from lauricella.series import Family, _step_arrays


def _arrays(fam, r, xs, cap, rng):
    alpha = tuple(rng.uniform(0.3, 1.5, r if fam is Family.B else 1))
    beta = tuple(rng.uniform(0.3, 1.5, 1 if fam is Family.C else r))
    gamma = tuple(rng.uniform(0.8, 2.0,
                              r if fam in (Family.A, Family.C) else 1))
    return _step_arrays(fam, alpha, beta, gamma, xs, cap)


def reference_shell_sum(AS, AU, rel_tol, q_cap, s_max):
    """Scalar parity reference: a dictionary walk over every multi-index,
    each term from its parent m - e_j (j the first nonzero axis), with
    the kernels' Kahan accumulation and stopping rule written out."""
    r = AU.shape[0]
    mags = np.zeros(s_max + 1)
    prev = {(0,) * r: 1.0}
    acc = 1.0
    comp = 0.0
    mags[0] = 1.0
    mag_prev = 1.0
    mag_last = 1.0
    terms = 1
    shells = 0
    status = kernels.MAXED
    ok_run = 0
    for s in range(1, s_max + 1):
        a = AS[s - 1]
        cur = {}
        shell = 0.0
        mag = 0.0
        for m in kernels.compositions(s, r):
            for j in range(r):
                if m[j]:
                    parent = m[:j] + (m[j] - 1,) + m[j + 1 :]
                    v = prev[parent] * a * AU[j, m[j] - 1]
                    break
            cur[m] = v
            shell += v
            mag += abs(v)
        terms += len(cur)
        shells = s
        mags[s] = mag
        y = shell - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        mag_prev = mag_last
        mag_last = mag
        prev = cur
        if mag == 0.0:
            status = kernels.TERMINATED
            break
        q = min(mag / mag_prev, q_cap)
        tail = mag * q / (1.0 - q)
        if tail <= rel_tol * max(abs(acc), kernels.TINY):
            ok_run += 1
            if ok_run >= 2:
                status = kernels.CONVERGED
                break
        else:
            ok_run = 0
    return acc, shells, mag_last, mag_prev, terms, status, mags


class TestCompositions:
    @pytest.mark.parametrize("total,parts", [(0, 1), (5, 1), (0, 3), (4, 2),
                                             (6, 3), (5, 4)])
    def test_count_and_content(self, total, parts):
        out = list(kernels.compositions(total, parts))
        assert len(out) == math.comb(total + parts - 1, parts - 1)
        assert len(set(out)) == len(out)
        assert all(sum(m) == total and len(m) == parts for m in out)

    def test_single_part(self):
        assert list(kernels.compositions(7, 1)) == [(7,)]

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_shell_layout(self, r):
        # with AS = 1 and AU[j] = p_j, distinct primes, the term at m is
        # prod p_j ** m_j, so the flat shell spells out its multi-indices
        t = np.array([2.0, 3.0, 5.0, 7.0][:r])
        cap = 6
        AU = np.repeat(t[:, None], cap, axis=1)
        tables = kernels.shell_sizes(r, cap)
        cur = np.ones(1)
        for s in range(1, cap + 1):
            cur = kernels.shell_step(cur, s, 1.0, AU, tables)
            want = [math.prod(int(b) ** e for b, e in zip(t, m))
                    for m in kernels.compositions(s, r)]
            assert cur.tolist() == want


class TestKernelParity:
    """The kernel against the scalar reference walk."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_shell_sum_agreement(self, r):
        rng = np.random.default_rng(100 + r)
        cap = 200 if r < 4 else 60
        for fam in Family:
            xs = rng.uniform(-0.15, 0.15, r)
            AS, AU = _arrays(fam, r, xs, cap, rng)
            out = kernels.shell_sum(r, AS, AU, 1e-14, 0.9, cap - 1)
            ref = reference_shell_sum(AS, AU, 1e-14, 0.9, cap - 1)
            assert out[0] == pytest.approx(ref[0], rel=1e-14)
            assert (out[1], out[4], out[5]) == (ref[1], ref[4], ref[5])
            # magnitudes accumulate in different orders; ulp-level slack
            assert out[2] == pytest.approx(ref[2], rel=1e-12)
            assert out[3] == pytest.approx(ref[3], rel=1e-12)
            np.testing.assert_allclose(out[6], ref[6], rtol=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_batch_agreement(self, r):
        rng = np.random.default_rng(200 + r)
        AS, P = _arrays(Family.A, r, np.ones(r), 80, rng)
        coords = rng.uniform(-0.2, 0.2, (r, 60 if r == 4 else 500)) / r
        vals, ok = kernels.batch_shell_sum(r, AS, P, coords, 1e-13, 0.9, 79)
        ref = [reference_shell_sum(AS, P * x[:, None], 1e-13, 0.9, 79)
               for x in coords.T]
        assert bool(ok.all())
        assert all(o[5] == kernels.CONVERGED for o in ref)
        np.testing.assert_allclose(vals, [o[0] for o in ref], rtol=1e-13)

    def test_generic_path_matches_specialized(self):
        # pad a 2-variable problem with two dead axes; the generic step
        # must reproduce the inline two-variable step
        rng = np.random.default_rng(300)
        xs = (0.1, -0.12)
        AS, AU = _arrays(Family.A, 2, xs, 120, rng)
        ref = kernels.shell_sum(2, AS, AU, 1e-14, 0.9, 119)
        AU4 = np.vstack([AU, np.zeros((2, AU.shape[1]))])
        gen = kernels.shell_sum(4, AS, AU4, 1e-14, 0.9, 119)
        assert gen[0] == pytest.approx(ref[0], rel=1e-13)
        assert gen[5] == ref[5]
        np.testing.assert_allclose(gen[6], ref[6], rtol=1e-12)


class TestStatuses:
    def test_converged(self):
        rng = np.random.default_rng(7)
        AS, AU = _arrays(Family.D, 2, (0.1, 0.1), 100, rng)
        out = kernels.shell_sum(2, AS, AU, 1e-14, 0.9, 99)
        assert out[5] == kernels.CONVERGED

    def test_terminated(self):
        # numerator parameter a negative integer: the series is a polynomial
        AS, AU = _step_arrays(Family.A, (0.8,), (-3.0,), (1.5,), (0.4,), 50)
        out = kernels.shell_sum(1, AS, AU, 1e-14, 0.9, 49)
        assert out[5] == kernels.TERMINATED
        assert out[1] == 4          # first empty shell is degree 4

    def test_maxed(self):
        AS, AU = _step_arrays(Family.D, (0.9,), (1.1,), (1.0,), (0.95,), 10)
        out = kernels.shell_sum(1, AS, AU, 1e-14, 0.999, 9)
        assert out[5] == kernels.MAXED

    def test_batch_r4_matches_single_point(self):
        rng = np.random.default_rng(8)
        AS, P = _arrays(Family.A, 4, np.ones(4), 60, rng)
        coords = rng.uniform(-0.04, 0.04, (4, 40))
        vals, ok = kernels.batch_shell_sum(4, AS, P, coords, 1e-14, 0.9, 59)
        assert bool(ok.all())
        single = [kernels.shell_sum(4, AS, P * x[:, None], 1e-14, 0.9, 59)
                  for x in coords.T]
        assert all(o[5] == kernels.CONVERGED for o in single)
        np.testing.assert_allclose(vals, [o[0] for o in single], rtol=1e-14)

    def test_batch_unconverged_mask(self):
        rng = np.random.default_rng(9)
        AS, P = _arrays(Family.A, 1, np.ones(1), 12, rng)
        coords = np.array([[0.05, 0.97]])    # second point too close to 1
        vals, ok = kernels.batch_shell_sum(1, AS, P, coords, 1e-13, 0.999, 11)
        assert bool(ok[0]) and not bool(ok[1])

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_batch_node_independent_of_neighbours(self, r):
        # a node that converges early must stop where it would alone, not
        # keep adding shells while slow neighbours run on; the loose
        # tolerance makes every extra shell visible in the sum
        rng = np.random.default_rng(10 + r)
        AS, P = _arrays(Family.A, r, np.ones(r), 150, rng)
        fast = np.array([0.05, 0.1, 0.2]) / r
        slow = np.full((r, 4), 0.6 / r)
        for x in fast:
            node = np.full((r, 1), x)
            alone, ok_alone = kernels.batch_shell_sum(
                r, AS, P, node, 1e-10, 0.95, 149)
            mixed, ok_mixed = kernels.batch_shell_sum(
                r, AS, P, np.hstack([slow[:, :2], node, slow[:, 2:]]),
                1e-10, 0.95, 149)
            assert bool(ok_alone[0]) and bool(ok_mixed.all())
            assert mixed[2] == alone[0]
