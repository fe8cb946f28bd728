"""Independent high-precision reference values for the four families.

Shares no code with the package under test. Arity 1 goes through mpmath's
``hyp2f1`` and arity 2 through ``appellf1``..``appellf4``. Arity 3 and up
use one factorisation that all four families share: the term at the
multi-index m is A(|m|) * prod_j u_j(m_j), so the sum of shell n is A(n)
times the n-th coefficient of prod_j U_j(t), U_j(t) = sum_m u_j(m) t^m.
Each shell is then one entry of a convolution of per-axis sequences,
computed here in mpmath arithmetic at ``DPS`` digits.
"""

import mpmath as mp

DPS = 40
# the convolution sum stops once this many consecutive shells are all
# below TAIL_REL * |partial sum| and shrinking
TAIL_REL = mp.mpf(10) ** -24
TAIL_RUN = 6
MAX_SHELLS = 6000


def _family_parts(family, alpha, beta, gamma):
    """Per-family split of the term ratio: (A-step, per-axis u-steps).

    A(n+1) / A(n) = a_step(n) and u_j(m+1) / u_j(m) = u_step(j, m) * x_j.
    """
    a, b, g = ([mp.mpf(v) for v in vec] for vec in (alpha, beta, gamma))
    if family == "A":
        return (lambda n: a[0] + n,
                lambda j, m: (b[j] + m) / ((g[j] + m) * (m + 1)))
    if family == "B":
        return (lambda n: 1 / (g[0] + n),
                lambda j, m: (a[j] + m) * (b[j] + m) / (m + 1))
    if family == "C":
        return (lambda n: (a[0] + n) * (b[0] + n),
                lambda j, m: 1 / ((g[j] + m) * (m + 1)))
    if family == "D":
        return (lambda n: (a[0] + n) / (g[0] + n),
                lambda j, m: (b[j] + m) / (m + 1))
    raise ValueError(f"unknown family {family!r}")


def _convolution_sum(family, alpha, beta, gamma, point):
    r = len(point)
    a_step, u_step = _family_parts(family, alpha, beta, gamma)
    xs = [mp.mpf(x) for x in point]
    axes = [[mp.mpf(1)] for _ in range(r)]
    # prefix[k][n]: coefficient n of U_0 * ... * U_k, signed and absolute
    prefix = [[mp.mpf(1)] for _ in range(r)]
    prefix_abs = [[mp.mpf(1)] for _ in range(r)]
    big_a = mp.mpf(1)
    total = mp.mpf(1)
    small = 0
    prev_mag = mp.mpf(1)
    for n in range(1, MAX_SHELLS + 1):
        for j in range(r):
            axes[j].append(axes[j][-1] * u_step(j, n - 1) * xs[j])
        prefix[0].append(axes[0][n])
        prefix_abs[0].append(abs(axes[0][n]))
        for k in range(1, r):
            col = axes[k][n::-1]
            prefix[k].append(mp.fdot(prefix[k - 1], col))
            prefix_abs[k].append(mp.fdot(prefix_abs[k - 1],
                                         [abs(v) for v in col]))
        big_a *= a_step(n - 1)
        shell = big_a * prefix[-1][n]
        mag = abs(big_a) * prefix_abs[-1][n]
        total += shell
        if mag <= TAIL_REL * abs(total) and mag <= prev_mag:
            small += 1
            if small >= TAIL_RUN:
                return total
        else:
            small = 0
        prev_mag = mag
    raise ArithmeticError("reference sum did not settle within "
                          f"{MAX_SHELLS} shells")


def reference_value(family, alpha, beta, gamma, point):
    """The family value at `point` to about DPS digits, as an mpf.

    Zero coordinates drop out (their axes contribute only m_j = 0), so a
    point with zeros reduces to a lower arity first.
    """
    keep = [j for j, x in enumerate(point) if x != 0.0]
    long_a = family == "B"
    long_b = family in ("A", "B", "D")
    long_g = family in ("A", "C")
    pick = lambda vec, long: [vec[j] for j in keep] if long else list(vec)
    alpha, beta, gamma = (pick(alpha, long_a), pick(beta, long_b),
                          pick(gamma, long_g))
    point = [point[j] for j in keep]
    r = len(point)
    with mp.workdps(DPS):
        if r == 0:
            return mp.mpf(1)
        if r == 1:
            return mp.hyp2f1(alpha[0], beta[0], gamma[0], point[0])
        if r == 2:
            x, y = point
            if family == "A":
                return mp.appellf2(alpha[0], beta[0], beta[1], gamma[0],
                                   gamma[1], x, y)
            if family == "B":
                return mp.appellf3(alpha[0], alpha[1], beta[0], beta[1],
                                   gamma[0], x, y)
            if family == "C":
                return mp.appellf4(alpha[0], beta[0], gamma[0], gamma[1],
                                   x, y)
            return mp.appellf1(alpha[0], beta[0], beta[1], gamma[0], x, y)
        return _convolution_sum(family, alpha, beta, gamma, point)

