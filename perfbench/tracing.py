"""Per-layer tracing from outside the package.

The tracer wraps public functions of the package's modules by name,
without changing anything under ``src/``: every binding of a target
function in any ``lauricella`` module (its home module, modules that
imported it by name, the package namespace) is replaced by a wrapper
that records a span. Spans (name, start, end, parent span, extra) stay in
memory until the run ends, then reduce to the per-layer metrics.

A target that a later change removed or renamed is reported as not
measured; its metrics read 0 and the run goes on.
"""

import importlib
import os
import sys
import time

# (dotted path below the package, what the wrapper records); the first
# part of the path is the layer
TARGETS = (
    ("kernels.shell_sum", "span"),
    ("kernels.batch_shell_sum", "span"),
    ("series.eval_lauricella", "span"),
    ("series.pochhammer", "count"),
    ("quadrature.eval_integral_rep", "span"),
    ("quadrature.gauss_jacobi_rule", "span"),
    ("decompositions.verify", "span"),
    ("decompositions.eval_rhs", "span"),
    ("taylor.TruncatedSeries.__init__", "span"),
    ("taylor.build_series", "span"),
    ("taylor.apply_H", "span"),
    ("taylor.apply_Hbar", "span"),
    ("taylor.pochhammer_neg_delta", "span"),
    ("identities.verify_operational_identity", "span"),
    ("identities.derivation_chain_closure", "span"),
    ("report.write_json", "span"),
    ("cli.main", "span"),
)

# status code the kernels return when the degree cap ran out
_MAXED = 2
# decomposition rows whose right side is one transformed family call, not
# an outer sum; left out of the inner-call and outer-term counts
_CLOSED_RHS = frozenset(("2.25", "3.39"))


def _extra(path, args, kwargs, out):
    """Work counts taken from a call's arguments and result."""
    if path == "kernels.shell_sum":
        return (int(args[0]), int(out[1]), int(out[4]), int(out[5]))
    if path == "kernels.batch_shell_sum":
        return int(args[3][0].size)
    if path == "taylor.TruncatedSeries.__init__":
        coeffs = args[3] if len(args) > 3 else kwargs["coeffs"]
        return len(coeffs)
    if path == "decompositions.eval_rhs":
        desc = args[0] if args else kwargs["desc"]
        return None if desc.id in _CLOSED_RHS else int(out.terms_summed)
    if path == "report.write_json":
        path_arg = args[2] if len(args) > 2 else kwargs["path"]
        return os.path.getsize(path_arg)
    return None


class Tracer:
    def __init__(self, package="lauricella"):
        self.package = package
        self.spans = []          # [path, start, end, parent index, extra]
        self.counts = {}
        self.missing = {}        # path -> reason
        self._stack = []
        self._undo = []

    # -- installing -------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _span_wrapper(self, path, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        missing = self.missing

        def wrapper(*args, **kwargs):
            rec = [path, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            try:
                rec[4] = _extra(path, args, kwargs, out)
            except (TypeError, IndexError, KeyError, AttributeError,
                    ValueError, OSError) as exc:
                missing.setdefault(path + ".counts",
                                   f"counts unreadable: {exc!r}")
            return out

        return wrapper

    def _count_wrapper(self, path, fn):
        counts = self.counts
        counts[path] = 0

        def wrapper(*args, **kwargs):
            counts[path] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for path, kind in TARGETS:
            parts = path.split(".")
            try:
                owner = importlib.import_module(f"{self.package}.{parts[0]}")
                for part in parts[1:-1]:
                    owner = getattr(owner, part)
                fn = getattr(owner, parts[-1])
            except (ImportError, AttributeError) as exc:
                self.missing[path] = f"not found: {exc}"
                continue
            make = self._span_wrapper if kind == "span" else \
                self._count_wrapper
            wrapped = make(path, fn)
            if isinstance(owner, type):
                self._undo.append((owner, parts[-1], fn))
                setattr(owner, parts[-1], wrapped)
                continue
            for mod in self._modules():
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((mod, name, fn))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def reset(self):
        """Drop what warm-up recorded; keep the wrappers."""
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0

    # -- reducing ---------------------------------------------------------

    def metrics(self):
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]

        def ancestor(i, names):
            """Index of the nearest enclosing span named in names, or -1."""
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            return p

        def has_ancestor(i, names):
            return ancestor(i, names) >= 0

        by_path = {}
        for i, rec in enumerate(spans):
            by_path.setdefault(rec[0], []).append(i)

        def group(names):
            """(calls, outermost inclusive time, self time) of a group."""
            names = set(names)
            idx = [i for nm in names for i in by_path.get(nm, ())]
            total = sum(spans[i][2] - spans[i][1] for i in idx
                        if not has_ancestor(i, names))
            self_t = sum(spans[i][2] - spans[i][1] - child_time[i]
                         for i in idx)
            return len(idx), total, self_t

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        ks = by_path.get("kernels.shell_sum", [])
        calls, k_time, _ = group(["kernels.shell_sum"])
        extras = [spans[i][4] for i in ks if spans[i][4] is not None]
        shells = sum(e[1] for e in extras)
        terms = sum(e[2] for e in extras)
        put("kernels.shell_sum.calls", calls, "count")
        put("kernels.shell_sum.time_s", k_time, "s")
        put("kernels.shell_sum.shells", shells, "count")
        put("kernels.shell_sum.terms", terms, "count")
        put("kernels.shell_sum.ns_per_term",
            k_time / terms * 1e9 if terms else 0.0, "ns")
        put("kernels.shell_sum.maxed_calls",
            sum(1 for e in extras if e[3] == _MAXED), "count")
        for label, lo, hi in (("r1", 1, 1), ("r2", 2, 2), ("r3", 3, 3),
                              ("r4plus", 4, 10 ** 9)):
            put(f"kernels.shell_sum.{label}.time_s",
                sum(spans[i][2] - spans[i][1] for i in ks
                    if spans[i][4] is not None
                    and lo <= spans[i][4][0] <= hi), "s")

        calls, e_time, e_self = group(["series.eval_lauricella"])
        put("series.eval_lauricella.calls", calls, "count")
        put("series.eval_lauricella.time_s", e_time, "s")
        put("series.eval_lauricella.overhead_us",
            e_self / calls * 1e6 if calls else 0.0, "us")
        put("series.pochhammer.calls",
            self.counts.get("series.pochhammer", 0), "count")

        bs = by_path.get("kernels.batch_shell_sum", [])
        calls, b_time, _ = group(["kernels.batch_shell_sum"])
        nodes = sum(spans[i][4] or 0 for i in bs)
        put("kernels.batch_shell_sum.calls", calls, "count")
        put("kernels.batch_shell_sum.time_s", b_time, "s")
        put("kernels.batch_shell_sum.nodes", nodes, "count")
        put("kernels.batch_shell_sum.ns_per_node",
            b_time / nodes * 1e9 if nodes else 0.0, "ns")

        calls, q_time, q_self = group(["quadrature.eval_integral_rep"])
        put("quadrature.eval_integral_rep.calls", calls, "count")
        put("quadrature.eval_integral_rep.time_s", q_time, "s")
        put("quadrature.eval_integral_rep.self_time_s", q_self, "s")
        put("quadrature.gauss_jacobi_rule.time_s",
            group(["quadrature.gauss_jacobi_rule"])[1], "s")

        calls, v_time, _ = group(["decompositions.verify"])
        put("decompositions.verify.calls", calls, "count")
        put("decompositions.verify.time_s", v_time, "s")
        put("decompositions.eval_rhs.self_time_s",
            group(["decompositions.eval_rhs"])[2], "s")
        # outer-sum rows only: eval_rhs of a closed row records no count
        rhs_names = {"decompositions.eval_rhs"}
        inner = sum(1 for i in by_path.get("series.eval_lauricella", [])
                    for p in [ancestor(i, rhs_names)]
                    if p >= 0 and spans[p][4] is not None)
        outer = sum(spans[i][4] or 0
                    for i in by_path.get("decompositions.eval_rhs", []))
        put("decompositions.inner_calls", inner, "count")
        put("decompositions.outer_terms", outer, "count")
        put("decompositions.inner_calls_per_outer_term",
            inner / outer if outer else 0.0, "calls/term")

        ts = by_path.get("taylor.TruncatedSeries.__init__", [])
        calls, t_time, _ = group(["taylor.TruncatedSeries.__init__"])
        put("taylor.TruncatedSeries.init.calls", calls, "count")
        put("taylor.TruncatedSeries.init.time_s", t_time, "s")
        put("taylor.TruncatedSeries.init.coeffs",
            sum(spans[i][4] or 0 for i in ts), "count")
        put("taylor.build_series.time_s",
            group(["taylor.build_series"])[1], "s")
        put("taylor.operators.time_s",
            group(["taylor.apply_H", "taylor.apply_Hbar",
                   "taylor.pochhammer_neg_delta"])[1], "s")
        calls, i_time, _ = group(["identities.verify_operational_identity"])
        put("identities.verify_operational_identity.calls", calls, "count")
        put("identities.verify_operational_identity.time_s", i_time, "s")
        put("identities.derivation_chain_closure.time_s",
            group(["identities.derivation_chain_closure"])[1], "s")

        put("report.write_json.time_s", group(["report.write_json"])[1], "s")
        put("report.write_json.bytes",
            sum(spans[i][4] or 0
                for i in by_path.get("report.write_json", [])), "B")
        put("cli.main.time_s", group(["cli.main"])[1], "s")
        return out
