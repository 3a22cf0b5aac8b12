"""Seeded benchmark of spekcat: one workload, one closed loop, one client.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; spekcat is imported from ``src/``.  The
inputs are made from ``--seed`` before anything is timed.  Passes of the
workload repeat until the next would end after ``--seconds``; the first
also warms first-use tables, and each op reports its best time.  Every op
is checked against an independent oracle and counted as failed when it
raises or is wrong.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes of the
same input alternate, the per-layer metrics come from the traced ones and
the spans of the first traced pass are written under ``perfbench/out/``.
The lines before the JSON repeat each metric with its unit and add the
named phase times, the failure counts and the line count of each module.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads
from workloads import Ops, Passes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_RUNS = 9
# every op is timed at least this often
MIN_PASSES = 3

# A fresh interpreter imports the command-line program and warms its
# first-use tables with one tiny closed form (the Sigma box needs the
# permutation factorisation table).
SETUP_PROBE = r"""
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spekcat.cli
from spekcat import diagrams, signatures
form, _ = signatures.state_form(diagrams.parse(
    "box u: eps+\nbox s: perm((24))\nwire u.1 s.in\nout s.1\n"))
form.expand()
print(time.perf_counter() - start)
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "op/s",
              "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_EXTRA = {"signatures.tally_yield": "ratio",
                   "trace.spans": "count", "trace.overhead_share": "ratio"}
# the name each family's summed time has in the ``families`` report
FAMILY_TIME = {"chain-int": "chain_int_eval_s", "fan": "fan_form_s",
               "chain": "chain_form_s"}


def per_layer_units():
    units = {}
    for name in tracing.metric_names():
        units[name] = "s" if name.endswith("_s") else "count"
    units.update(PER_LAYER_EXTRA)
    return units


def setup_time():
    """Set-up time of one fresh interpreter."""
    out = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, SRC],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True, timeout=120)
    return float(out.stdout.split()[-1])


def run_plain(workload, texts, seconds):
    """Passes until the next would end after ``seconds``, and at least
    ``MIN_PASSES`` in all.  The set-up probes run between passes, so that
    they sample the machine at several moments of the run."""
    passes, ops, walls, setups = Passes(workload), Ops(), [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or (
            time.perf_counter() - start + walls[-1] < seconds):
        if len(setups) < SETUP_RUNS:
            setups.append(setup_time())
        walls.append(passes.run(texts, ops))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_time())
    return ops, walls, statistics.median(setups)


def run_traced(workload, texts, seconds, span_path):
    """Untraced and traced passes over the inputs, alternating, each from
    a fresh start, until the next pair would end after ``seconds``."""
    plain, traced = Ops(), Ops()
    plain_walls, traced_walls, tracers = [], [], []
    start = last = time.perf_counter()
    while not tracers or 2 * time.perf_counter() - start - last < seconds:
        last = time.perf_counter()
        plain_walls.append(Passes(workload).run(texts, plain))
        passes = Passes(workload)
        tr = tracing.Tracer()
        traced.tracer = tr
        tr.install()
        try:
            traced_walls.append(passes.run(texts, traced))
        finally:
            tr.uninstall()
        tracers.append(tr)
    tracing.write_spans(tracers[0], span_path)
    stats = [tracing.layer_stats(tr) for tr in tracers]
    metrics = {name: statistics.median(s.get(name, 0) for s in stats)
               for name in tracing.metric_names()}
    metrics["trace.spans"] = statistics.median(s["trace.spans"] for s in stats)
    solutions = metrics["signatures.state_form.solutions"]
    metrics["signatures.tally_yield"] = (
        metrics["signatures.state_form.signatures"] / solutions
        if solutions else 0)
    metrics["trace.overhead_share"] = (min(traced_walls) / min(plain_walls)
                                       - 1)
    ops = Ops()
    ops.attempted = plain.attempted + traced.attempted
    ops.failed = plain.failed + traced.failed
    ops.wrong = plain.wrong + traced.wrong
    ops.errors = plain.errors + traced.errors
    return ops, metrics


def src_lines():
    pkg = os.path.join(SRC, "spekcat")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                out[name[:-3]] = sum(1 for _ in fh)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spekcat", "__init__.py")):
        print("error: no spekcat package under %s" % SRC, file=sys.stderr)
        return 2

    texts = workloads.make_inputs(args.workload, args.seed)
    sys.path.insert(0, SRC)

    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        span_path = os.path.join(OUT, "spans_%s_%d.tsv"
                                 % (args.workload, args.seed))
        ops, values = run_traced(args.workload, texts, args.seconds,
                                 span_path)
        units = per_layer_units()
        print("spans of the first traced pass: %s"
              % os.path.relpath(span_path, ROOT))
    else:
        ops, walls, setup_s = run_plain(args.workload, texts, args.seconds)
        best = ops.best()
        values = {
            "setup_s": setup_s,
            "wall_s": sum(best),
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": 1e3 * statistics.median(best),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print("passes=%d ops=%d; pass time min %.6g s, median %.6g s"
              % (len(walls), len(best), min(walls),
                 statistics.median(walls)))
        # printed, not gated: from seed to seed it moves by up to a fifth
        print("  %-22s %.6g ms (nearest rank of %d ops)"
              % ("op_p99_ms", 1e3 * workloads.percentile(best, 99),
                 len(best)))
        if args.workload == "families":
            for family, name in FAMILY_TIME.items():
                print("  %-22s %.6g s" % (name, sum(
                    ops.fastest["%s(%d)" % (family, n)]
                    for n in workloads.FAMILY_SIZES[family])))
            for key, lat in ops.fastest.items():
                print("  %-22s %.6g s" % (key, lat))
        for name in ("enumerate_spek_s", "enumerate_mspek_s"):
            if name in ops.fastest:
                print("  %-22s %.6g s" % (name, ops.fastest[name]))
    for name in units:
        print("  %-22s %.6g %s" % (name, values[name], units[name]))
    print("  %-22s %.6g ratio (%d failed / %d attempted)"
          % ("failed_share", ops.failed / ops.attempted, ops.failed,
             ops.attempted))
    for why in ops.errors:
        print("  failed: %s" % why)
    print("src_lines %s" % json.dumps(src_lines(), sort_keys=True))
    print(json.dumps({
        "correct": ops.wrong == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
