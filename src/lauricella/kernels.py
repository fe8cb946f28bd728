"""Shell-by-shell summation kernel.

Every series handled here has hypergeometric-type terms: the term at a
multi-index m equals the term at m - e_j times a precomputed step factor.
The factor splits into a part depending only on the total degree |m|
(array ``AS``, indexed by the old total) and a part depending only on the
stepped coordinate (array ``AU[j]``, indexed by the old m_j, with the
coordinate x_j folded in). Summation runs shell by shell in total degree;
per-shell magnitudes feed the stopping rule and the tail estimate.

Layout: shell s is one flat array of the C(s + r - 1, r - 1) terms of
total degree s, in ``compositions(s, r)`` order, and the parent of m is
m - e_j with j its first nonzero axis. In that order the terms with
m_0 >= 1 step exactly shell s-1 along axis 0, in order, with the factor
AU[0, k] repeated over the terms whose m_0 = k + 1, as many as shell
s-1-k has in r-1 variables. The m_0 = 0 block in front is shell s in
axes 1..r-1, whose parents are the matching leading block of shell s-1;
so ``shell_step`` applies the one rule level by level down to the single
term (0, ..., 0, s). It serves every arity, with an optional leading
batch axis, and needs no index tables.

Two loops run it. ``shell_sum`` sums one point in a scalar loop with
Kahan compensation (r = 1 takes a prefix product instead: on a line each
shell is one term). ``batch_shell_sum`` sums many points of one parameter
set at once; a node leaves the working arrays at the shell where it
finishes, so its value does not depend on its neighbours.

Stopping rule, shared by both loops: after shell s compute
q = mag_s / mag_{s-1} clamped to q_cap, tail = mag_s * q/(1-q), and stop
once tail <= rel_tol * max(|acc|, tiny) on two consecutive shells. One
small shell alone is not trusted: sign cancellation inside a shell can
make it spuriously tiny. An exactly zero shell terminates the sum (every
later term is a product of a zero parent).

Status codes: 0 converged, 1 terminated exactly, 2 cap exhausted.
"""

from functools import lru_cache

import numpy as np

CONVERGED = 0
TERMINATED = 1
MAXED = 2

TINY = float(np.finfo(np.float64).tiny)


def compositions(total, parts):
    """Yield all tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=64)
def shell_sizes(r, s_max):
    """(sizes, columns) for arity r through shell s_max: sizes[k, n] =
    C(n + k - 1, k - 1) is the number of terms of total degree n in k
    variables (k = 0..r), and columns[n] is sizes[:, n] as Python ints."""
    sizes = np.zeros((r + 1, s_max + 1), dtype=np.int64)
    sizes[0, 0] = 1
    for k in range(1, r + 1):
        np.cumsum(sizes[k - 1], out=sizes[k])
    sizes.setflags(write=False)
    return sizes, tuple(map(tuple, sizes.T.tolist()))


def shell_step(cur, s, a, AU, tables, coords=None):
    """Shell s from shell s-1 (`cur`, flat, with an optional leading batch
    axis); `a` is AS[s-1] and `tables` is ``shell_sizes(r, s_max)``. With
    `coords`, AU leaves the coordinates out and coords[j] (one value per
    batch row) multiplies every axis-j step.
    """
    sizes, columns = tables
    col = columns[s]
    r = len(col) - 1
    nxt = np.empty(cur.shape[:-1] + (col[r],))
    # k = 1: the single term (0, ..., 0, s)
    nxt[..., 0] = cur[..., 0] * AU[r - 1, s - 1]
    if coords is not None:
        nxt[..., 0] *= a * coords[r - 1]
    lo = 1
    for k in range(2, r + 1):
        # the m_j >= 1 block of the k-variable shell; its parents are the
        # k-variable block that leads shell s-1
        j = r - k
        hi = col[k]
        fac = AU[j, :s]
        if k > 2:
            fac = fac.repeat(sizes[k - 1, s - 1::-1])
        blk = nxt[..., lo:hi]
        np.multiply(cur[..., :hi - lo], fac, out=blk)
        if coords is not None:
            blk *= (a * coords[j])[:, None]
        lo = hi
    if coords is None:
        nxt *= a
    return nxt


def _scan_stop(mags_list, acc_list, rel_tol, q_cap):
    """Replay the stopping rule over precomputed shell magnitudes.

    Used by the r=1 prefix product, where all candidate terms are cheap
    to produce up front. Returns (shells, status).
    """
    ok_run = 0
    for s in range(1, len(mags_list)):
        mag = mags_list[s]
        if mag == 0.0:
            return s, TERMINATED
        q = mag / mags_list[s - 1] if mags_list[s - 1] > 0.0 else q_cap
        if q > q_cap:
            q = q_cap
        tail = mag * q / (1.0 - q)
        if tail <= rel_tol * max(abs(acc_list[s]), TINY):
            ok_run += 1
            if ok_run >= 2:
                return s, CONVERGED
        else:
            ok_run = 0
    return len(mags_list) - 1, MAXED


def _prefix_sum_r1(AS, AU0, rel_tol, q_cap, s_max, mags):
    terms = np.empty(s_max + 1)
    terms[0] = 1.0
    if s_max:
        np.cumprod(AS[:s_max] * AU0[:s_max], out=terms[1:])
    absterms = np.abs(terms)
    accs = np.cumsum(terms)
    shells, status = _scan_stop(absterms, accs, rel_tol, q_cap)
    mags[: shells + 1] = absterms[: shells + 1]
    value = float(np.add.reduce(terms[: shells + 1]))
    mag_last = float(absterms[shells])
    mag_prev = float(absterms[shells - 1]) if shells >= 1 else 1.0
    return value, shells, mag_last, mag_prev, shells + 1, status


def shell_sum(arity, AS, AU, rel_tol, q_cap, s_max):
    """Sum one point; returns (value, shells, mag_last, mag_prev, terms,
    status, mags)."""
    mags = np.zeros(s_max + 1)
    if arity == 1:
        return _prefix_sum_r1(AS, AU[0], rel_tol, q_cap, s_max, mags) \
            + (mags,)
    tables = shell_sizes(arity, s_max)
    AS = AS.tolist()
    AU0, AU1 = AU[0], AU[1]
    add, absolute = np.add.reduce, np.abs
    multiply, empty = np.multiply, np.empty
    cur = np.ones(1)
    acc = 1.0
    comp = 0.0
    mags[0] = 1.0
    mag_prev = 1.0
    mag_last = 1.0
    terms = 1
    shells = 0
    status = MAXED
    ok_run = 0
    for s in range(1, s_max + 1):
        a = AS[s - 1]
        if arity == 2:
            # shell_step for r = 2, inline: this loop runs 1000+ shells
            # near the boundary
            nxt = empty(s + 1)
            nxt[0] = cur[0] * a * AU1[s - 1]
            blk = nxt[1:]
            multiply(cur, AU0[:s], out=blk)
            blk *= a
        else:
            nxt = shell_step(cur, s, a, AU, tables)
        shell = float(add(nxt))
        mag = float(add(absolute(nxt)))
        terms += nxt.size
        shells = s
        mags[s] = mag
        y = shell - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        mag_prev = mag_last
        mag_last = mag
        cur = nxt
        if mag == 0.0:
            status = TERMINATED
            break
        q = min(mag / mag_prev, q_cap)
        tail = mag * q / (1.0 - q)
        if tail <= rel_tol * max(abs(acc), TINY):
            ok_run += 1
            if ok_run >= 2:
                status = CONVERGED
                break
        else:
            ok_run = 0
    return acc, shells, mag_last, mag_prev, terms, status, mags


def batch_shell_sum(arity, AS, P, coords, rel_tol, q_cap, s_max):
    """Sum many points of one parameter set; returns (values,
    converged_mask).

    P[j][m] is AU[j][m] with the coordinate divided out; coords[j] holds
    every point's coordinate j. A node leaves the working arrays at the
    shell where it terminates or converges; nodes still running at s_max
    keep the partial sum and a False mask entry.
    """
    tables = shell_sizes(arity, s_max)
    X = np.array(coords, dtype=np.float64).reshape(arity, -1)
    n = X.shape[1]
    out = np.empty(n)
    done = np.zeros(n, dtype=bool)
    live = np.arange(n)
    cur = np.ones((n, 1))
    acc = np.ones(n)
    mag_prev = np.ones(n)
    ok_run = np.zeros(n, dtype=np.int8)
    add = np.add.reduce
    for s in range(1, s_max + 1):
        cur = shell_step(cur, s, AS[s - 1], P, tables, X)
        acc += add(cur, axis=1)
        mag = add(np.abs(cur), axis=1)
        # every live node has mag_prev > 0: a zero shell finishes its node
        q = np.minimum(mag / mag_prev, q_cap)
        small = mag * q / (1.0 - q) <= rel_tol * np.maximum(np.abs(acc), TINY)
        ok_run = (ok_run + 1) * small
        fin = (mag == 0.0) | (ok_run >= 2)
        if fin.any():
            gone = np.flatnonzero(fin)
            out[live[gone]] = acc[gone]
            done[live[gone]] = True
            if gone.size == live.size:
                return out, done
            keep = np.flatnonzero(~fin)
            live, cur, acc, mag, ok_run, X = (
                live[keep], cur[keep], acc[keep], mag[keep], ok_run[keep],
                X[:, keep])
        mag_prev = mag
    out[live] = acc
    return out, done
