"""Benchmark of the lauricella package: one workload per run.

    python3 perfbench/run.py --workload eval_mix --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, warms up, then repeats whole
rounds of the same operations until the next round would end after
--seconds. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it wraps the package's public functions (see tracing.py) and
reports the per-layer metrics instead. Every output is checked against
independent reference values after the timed phase. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run it from the root of a checkout; it imports the package from src/.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

_SCRIPT_T0 = time.perf_counter()

# one thread per BLAS/OpenMP pool: the workloads are single-caller loops
# over small arrays, and a fixed setting keeps runs comparable
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

# per-layer metrics in these units are totals over the timed phase,
# reported per round: a faster program fits more rounds into a run
TOTAL_UNITS = ("s", "count", "B")
# and these are times, reported in reference seconds like the end-to-end
# metrics
TIME_UNITS = ("s", "us", "ns")
# operations slower than this span many calibration bursts
LONG_OP_S = 1.0

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _process_age():
    """Seconds since this process started (interpreter start-up
    included), from the kernel's record of the start time; falls back to
    the time since this script began."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
        if 0.0 < age < 600.0:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _SCRIPT_T0


def _quantile(values, q):
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("eval_mix", "verify_all", "operator_chain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "lauricella", "__init__.py")):
        print(f"error: no package source at {SRC}/lauricella; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lauricella
    if not os.path.abspath(lauricella.__file__).startswith(SRC + os.sep):
        print(f"error: imported lauricella from {lauricella.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    wl.op_times.clear()
    if tracer:
        tracer.reset()
    setup_s = _process_age()

    clock = time.perf_counter
    cal = calibrate.Calibrator()
    rounds, round_times = [], []
    start = clock()
    while True:
        t0 = clock()
        rounds.append(wl.run_round(clock))
        round_times.append(clock() - t0)
        cal.top_up(clock() - start)
        if clock() - start + round_times[-1] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        * 1024 / 1e6
    if tracer:
        tracer.uninstall()

    attempted, failed, correct, notes = wl.check(rounds)
    # the shared host slows whole seconds at a time (CPU time too), and a
    # slower program slows every repeat; so run_s times each operation at
    # the 10th percentile of its repeats, the same quantile of the host's
    # states that the calibration takes (see calibrate.py), and the
    # percentiles use the fastest quarter of the rounds (at least one)
    per_round = len(wl.op_times) // len(rounds)
    by_round = [wl.op_times[k * per_round:(k + 1) * per_round]
                for k in range(len(rounds))]
    run_s = sum(_quantile(col, 0.1) for col in zip(*by_round))
    fastest = sorted(range(len(rounds)), key=round_times.__getitem__)
    kept = fastest[:max(1, len(rounds) // 4)]
    ops = [t for k in kept for t in by_round[k]]
    # the host's speed also drifts over an hour: every time is reported
    # in reference seconds (see calibrate.py)
    long_ops = _quantile(wl.op_times, 0.5) > LONG_OP_S
    scale = cal.factor(long_ops)
    e2e = {
        "setup_s": (setup_s * scale, "s"),
        "run_s": (run_s * scale, "s"),
        "op_p50_ms": (_quantile(ops, 0.5) * 1e3 * scale, "ms"),
        "op_p99_ms": (_quantile(ops, 0.99) * 1e3 * scale, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} "
          f"round(s), {len(kept)} kept, {len(ops)} operations in them, "
          f"trace {args.trace}")
    print(f"  calibration: {len(cal.samples)} samples, 10th percentile "
          f"{cal.reference_sample() * 1e3:.4f} ms, mean "
          f"{statistics.fmean(cal.samples) * 1e3:.4f} ms, scale "
          f"{scale:.4f} ({'mean' if long_ops else '10th percentile'}); raw "
          f"setup_s {setup_s:.6g} s, raw run_s {run_s:.6g} s")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<12} {value:12.6g} {unit}")
    print(f"  attempted    {attempted}")
    print(f"  failed       {failed}")
    print(f"  correct      {correct}")
    for note in notes:
        print(f"  note: {note}")
    if tracer:
        metrics = tracer.metrics()
        for m in metrics.values():
            if m["unit"] in TOTAL_UNITS:
                m["value"] /= len(rounds)
            if m["unit"] in TIME_UNITS:
                m["value"] *= scale
        for path, reason in sorted(tracer.missing.items()):
            print(f"  not measured: {path} ({reason})")
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
