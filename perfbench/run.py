"""bircheck benchmark: time to verdict and verdict correctness.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus|refute|store-scale \
        --seed N --seconds S --trace 0|1

One client drives the public API in a closed loop, one contract at a time:
parse_objdump -> make_slice -> lift_slice -> parse_contract -> to_bir ->
verify(..., SolverConfig()), with the bundled solver and the default pool.
Every verdict is checked against an answer that does not come from the
verifier (see workloads.py).

--trace 0 measures the end-to-end metrics: it runs the workload's inputs
round-robin until S seconds have passed, completing at least one pass.
--trace 1 alternates an untraced and a traced attempt per input, pass after
pass until S seconds have passed (at least one pass), and reports the
per-layer metrics of the traced attempts plus the tracing overhead; the
spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
SHOW_FAILURES = 5
OBLIGATION_KINDS = ("feasibility", "simplification", "entailment")

# Layer times that are exactly 0 on every run of a workload where the layer
# is idle (store-scale has no feasibility or alias checks, no prune batches
# and no sat models; only refute replays counterexamples).  They are printed
# and written with the spans, but kept out of the result line, whose times
# must differ from run to run.
PRINT_ONLY = frozenset({
    "smt.check_s.feasibility", "smt.check_s.simplification", "smt.parse_model_s",
    "smt.model_check_s", "smt.check_many_s", "symexec.prune_s", "contracts.replay_s",
    "isa.run_s", "bir.eval_s"})

EXIT_ENVIRONMENT = 3


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def prepare_environment():
    """Make bircheck importable here and in the solver child processes
    (`python -m bircheck.smt.minismt`), and refuse a non-bundled solver."""
    if not (SRC / "bircheck" / "__init__.py").is_file():
        fail(f"no bircheck sources under {SRC}; run from a full checkout",
             EXIT_ENVIRONMENT)
    if os.environ.get("BIRCHECK_SOLVER"):
        fail("BIRCHECK_SOLVER is set; the benchmark measures the bundled "
             "solver only, so unset it", EXIT_ENVIRONMENT)
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")


def git_commit():
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# One attempt: the pipeline from text to a checked verdict

class Attempt:
    __slots__ = ("verdict_s", "verify_s", "failure", "result")

    def __init__(self):
        self.verdict_s = self.verify_s = None
        self.failure = ""
        self.result = None


def attempt(inp, spot_failure):
    """Run one input through the public pipeline and check the verdict.
    Failures are recorded, never raised."""
    from bircheck import contracts, disasm, lifter
    from bircheck.smt import SolverConfig
    from bircheck.symexec import EngineConfig

    a = Attempt()
    try:
        t0 = time.perf_counter()
        unit = disasm.parse_objdump(inp.dis)
        rc = contracts.parse_contract(inp.ctr)
        sl = disasm.make_slice(unit, rc.entry, rc.endpoints)
        prog, _ = lifter.lift_slice(sl)
        bc = contracts.to_bir(rc, prog)
        t1 = time.perf_counter()
        res = contracts.verify(bc, EngineConfig(unroll=inp.unroll), SolverConfig())
        t2 = time.perf_counter()
    except Exception as e:  # a crash is a failed attempt, not a failed run
        a.failure = f"{type(e).__name__}: {e}"
        return a
    a.verdict_s, a.verify_s, a.result = t2 - t0, t2 - t1, res
    if res.verdict != inp.expected:
        a.failure = f"verdict {res.verdict}, expected {inp.expected}" + \
                    (f" ({res.reason})" if res.reason else "")
    elif res.verdict == "refuted":
        if res.counterexample is None:
            a.failure = "refuted without a counterexample"
        else:
            try:
                stop, holds = contracts.replay_counterexample(rc, sl, res.counterexample)
            except Exception as e:
                a.failure = f"replay crashed: {type(e).__name__}: {e}"
            else:
                if holds:
                    a.failure = f"counterexample replays to 0x{stop:x} where post holds"
    elif spot_failure:
        a.failure = f"concrete spot check: {spot_failure}"
    return a


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, a):
        self.attempted += 1
        if a.failure:
            self.failures.append(f"{name}: {a.failure}")


# ---------------------------------------------------------------------------
# End-to-end run

def per_input_medians(samples):
    return {k: statistics.median(v) for k, v in samples.items() if v}


def harrell_davis(xs, p, steps=2000):
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of every order statistic.  With one value per input it
    depends on all inputs, where an interpolated quantile of 8 values rests
    on 2 of them."""
    xs = sorted(xs)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)

    # Beta mass of [k/n, (k+1)/n] by the midpoint rule, `steps` points each
    weights = []
    for k in range(n):
        lo = k / n
        h = 1 / (n * steps)
        weights.append(h * math.fsum(pdf(lo + (j + 0.5) * h) for j in range(steps)))
    total = math.fsum(weights)
    return math.fsum(w * x for w, x in zip(weights, xs)) / total


def measure_setup(in_dir):
    """Median wall time of a fresh interpreter doing the set-up work."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(in_dir)],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr[-2000:]}", EXIT_ENVIRONMENT)
    return statistics.median(times)


def run_end_to_end(inputs, spot, seconds, in_dir):
    verdict = {inp.name: [] for inp in inputs}
    verify = {inp.name: [] for inp in inputs}
    tally = Tally()
    t_start = time.perf_counter()
    done = 0
    while done < len(inputs) or time.perf_counter() - t_start < seconds:
        inp = inputs[done % len(inputs)]
        a = attempt(inp, spot.get(inp.name))
        tally.add(inp.name, a)
        if a.verdict_s is not None:
            verdict[inp.name].append(a.verdict_s)
            verify[inp.name].append(a.verify_s)
        done += 1
    passes = done / len(inputs)
    wall = time.perf_counter() - t_start
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup_s = measure_setup(in_dir)

    v_med = per_input_medians(verdict)
    f_med = per_input_medians(verify)
    if not v_med:
        return tally, {}, {"passes": passes, "wall_s": wall}
    meds = list(v_med.values())
    metrics = {
        "verdicts_per_s": (len(meds) / math.fsum(meds), "1/s"),
        "verify_geomean_s": (math.exp(statistics.fmean(math.log(x) for x in f_med.values())),
                             "s"),
        "verdict_p50_s": (harrell_davis(meds, 0.5), "s"),
        "verdict_p90_s": (harrell_davis(meds, 0.9), "s"),
        "correct_ratio": ((tally.attempted - len(tally.failures)) / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    info = {"passes": passes, "wall_s": wall, "samples": sum(len(v) for v in verdict.values()),
            "inputs": len(v_med),
            "failed_ratio": len(tally.failures) / tally.attempted,
            "verdict_samples_s": verdict}
    return tally, metrics, info


# ---------------------------------------------------------------------------
# Traced run

def _sum(spans, attr="dur"):
    return math.fsum(getattr(s, attr) for s in spans)


def layer_metrics(spans, obligation_nodes, extra, model_delta):
    """Per-layer metrics of one traced pass."""
    from tracer import compute_self_times
    compute_self_times(spans)
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def named(name):
        return by.get(name, [])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    checks = named("smt.check")
    for kind in OBLIGATION_KINDS:
        ks = [c for c in checks if c.attrs.get("kind") == kind]
        m[f"smt.checks.{kind}"] = (len(ks), "count")
        m[f"smt.check_s.{kind}"] = (_sum(ks), "s")
    m["smt.process_s"] = (_sum(checks, "self_s"), "s")
    m["smt.encode_s"] = (_sum(named("smt.encode"), "self_s"), "s")
    m["smt.parse_model_s"] = (_sum(named("smt.parse_model"), "self_s"), "s")
    m["smt.model_check_s"] = (_sum(named("smt.model_check")), "s")
    m["smt.encoded_bytes"] = (sum(s.attrs.get("bytes", 0) for s in named("smt.encode")),
                              "bytes")
    m["smt.obligation_nodes"] = (obligation_nodes, "count")
    batches = named("smt.check_many")
    m["smt.check_many_s"] = (_sum(batches), "s")
    m["smt.pool_parallelism"] = (ratio(_sum([c for c in checks if "batch" in c.attrs]),
                                       _sum(batches)), "ratio")
    prunes = named("symexec.prune_infeasible")
    m["smt.prune_useful_ratio"] = (ratio(sum(p.attrs["in"] - p.attrs["out"] for p in prunes),
                                         sum(p.attrs["in"] for p in prunes)), "ratio")
    simp = [c for c in checks if c.attrs.get("kind") == "simplification"]
    m["smt.alias_resolved_ratio"] = (ratio(sum(c.attrs["status"] == "unsat" for c in simp),
                                           len(simp)), "ratio")
    m["smt.sat_ratio"] = (ratio(sum(c.attrs.get("status") == "sat" for c in checks),
                                len(checks)), "ratio")
    m["smt.models_checked"] = (model_delta[0], "count")
    m["smt.model_failures"] = (model_delta[1], "count")
    m["symexec.steps"] = (len(named("symexec.step_block")), "count")
    m["symexec.step_s"] = (_sum(named("symexec.step_block"), "self_s"), "s")
    m["symexec.prune_s"] = (_sum(prunes, "self_s"), "s")
    m["symexec.simplify_s"] = (_sum(named("symexec.simplify"), "self_s"), "s")
    m["symexec.abbreviate_s"] = (_sum(named("symexec.abbreviate"), "self_s"), "s")
    m["symexec.simplify_exp_s"] = (_sum(named("symexec.simplify_exp"), "self_s"), "s")
    m["symexec.execute_self_s"] = (_sum(named("symexec.execute"), "self_s"), "s")
    m["symexec.leaves"] = (extra["leaves"], "count")
    m["symexec.leaf_nodes"] = (extra["leaf_nodes"], "count")
    m["contracts.verify_self_s"] = (_sum(named("contracts.verify"), "self_s"), "s")
    m["contracts.replay_s"] = (_sum(named("contracts.replay_counterexample")), "s")
    m["contracts.parse_s"] = (_sum(named("contracts.parse_contract"), "self_s"), "s")
    m["contracts.to_bir_s"] = (_sum(named("contracts.to_bir"), "self_s"), "s")
    m["disasm.parse_s"] = (_sum(named("disasm.parse_objdump"), "self_s"), "s")
    m["disasm.slice_s"] = (_sum(named("disasm.make_slice"), "self_s"), "s")
    m["lifter.lift_s"] = (_sum(named("lifter.lift_slice"), "self_s"), "s")
    m["lifter.bir_statements"] = (extra["bir_statements"], "count")
    m["isa.run_s"] = (_sum(named("isa.run"), "self_s"), "s")
    m["bir.subst_s"] = (_sum(named("bir.subst"), "self_s"), "s")
    m["bir.subst_calls"] = (len(named("bir.subst")), "count")
    m["bir.eval_s"] = (_sum(named("bir.eval_exp"), "self_s"), "s")
    m["trace.spans"] = (len(spans), "count")
    return m


def _obligation_nodes(obligations):
    from bircheck import bir
    total = 0
    for o in obligations:
        for t in tuple(o.hypotheses) + (o.goal,):
            total += bir.node_count(t)
        for _, d in o.defs:
            total += bir.node_count(d)
    return total


def _structure_sizes(res):
    from bircheck import bir
    st = getattr(res, "structure", None)
    if st is None:
        return 0, 0
    nodes = 0
    for leaf in st.leaves:
        nodes += bir.node_count(leaf.path)
        nodes += sum(bir.node_count(e) for e in leaf.env.values())
        nodes += sum(bir.node_count(d) for _, d in leaf.abbrevs)
    return len(st.leaves), nodes


def _bir_statements(inp):
    from bircheck import contracts, disasm, lifter
    rc = contracts.parse_contract(inp.ctr)
    prog, _ = lifter.lift_slice(disasm.make_slice(disasm.parse_objdump(inp.dis),
                                                  rc.entry, rc.endpoints))
    return sum(len(b.statements) for b in prog.blocks)


def run_traced(inputs, spot, seconds, trace_path, record):
    from bircheck.smt import model_check_stats
    from tracer import Tracer, write_spans

    tracer = Tracer()
    tally = Tally()
    bir_statements = sum(_bir_statements(inp) for inp in inputs)
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        p = len(passes)
        first_span = len(tracer.spans)
        tracer.obligations.clear()
        models = [0, 0]    # sat models re-checked, and failures, in traced attempts
        untraced = traced = 0.0
        extra = {"leaves": 0, "leaf_nodes": 0, "bir_statements": bir_statements}
        for inp in inputs:
            a = attempt(inp, spot.get(inp.name))
            tally.add(inp.name, a)
            untraced += a.verdict_s or 0.0
            tracer.contract = f"{p}:{inp.name}"
            stats0 = model_check_stats()
            with tracer:
                a = attempt(inp, spot.get(inp.name))
            stats1 = model_check_stats()
            models[0] += stats1["sat_models_checked"] - stats0["sat_models_checked"]
            models[1] += stats1["sat_model_failures"] - stats0["sat_model_failures"]
            tally.add(inp.name, a)
            traced += a.verdict_s or 0.0
            leaves, nodes = _structure_sizes(a.result)
            extra["leaves"] += leaves
            extra["leaf_nodes"] += nodes
        m = layer_metrics(tracer.spans[first_span:],
                          _obligation_nodes(tracer.obligations), extra, models)
        m["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
        passes.append(m)
    write_spans(trace_path, record, tracer.spans)

    counts_repeat = all(passes[0][k] == q[k] for q in passes
                        for k, (v, unit) in passes[0].items() if unit == "count"
                        and k != "trace.spans")
    metrics = {}
    for k, (v, unit) in passes[0].items():
        if unit == "count":
            metrics[k] = (v, unit)
        else:
            metrics[k] = (statistics.median(q[k][0] for q in passes), unit)
    info = {"passes": len(passes), "wall_s": time.perf_counter() - t_start,
            "counts_repeat_across_passes": counts_repeat,
            "spans_written": str(trace_path),
            "failed_ratio": len(tally.failures) / tally.attempted}
    return tally, metrics, info


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "refute", "store-scale"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def write_inputs(inputs, in_dir):
    if in_dir.exists():
        shutil.rmtree(in_dir)
    in_dir.mkdir(parents=True)
    for inp in inputs:
        (in_dir / f"{inp.name}.dis").write_text(inp.dis)
        (in_dir / f"{inp.name}.ctr").write_text(inp.ctr)


def solver_probe():
    """Fail fast when the bundled solver cannot answer a trivial obligation."""
    from bircheck import bir
    from bircheck.smt import Obligation, SolverConfig, SolverCrash, check
    try:
        v = check(Obligation("feasibility", (), bir.true_exp, origin="perfbench-probe"),
                  SolverConfig())
    except SolverCrash as e:
        fail(f"the bundled solver crashed on a trivial obligation: {e}", EXIT_ENVIRONMENT)
    if not v.is_sat:
        fail(f"the bundled solver answered {v.status} on a trivially sat obligation",
             EXIT_ENVIRONMENT)


def main(argv=None):
    args = parse_args(argv)
    prepare_environment()
    sys.path.insert(0, str(HERE))
    import workloads
    from bircheck.smt import SolverConfig, default_solver_argv

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "solver_argv": default_solver_argv(),
              "pool": SolverConfig().pool, "commit": git_commit()}
    print("record " + json.dumps(record), flush=True)

    inputs = workloads.build(args.workload, args.seed)
    in_dir = OUT / f"inputs-{args.workload}-{args.seed}"
    write_inputs(inputs, in_dir)
    spot = {inp.name: workloads.spot_check(inp, args.seed)
            for inp in inputs if inp.expected == "verified"}
    solver_probe()
    attempt(inputs[0], "")  # warm-up: first-call imports and caches

    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tally, metrics, info = run_traced(inputs, spot, args.seconds, trace_path, record)
    else:
        tally, metrics, info = run_end_to_end(inputs, spot, args.seconds, in_dir)

    for line in tally.failures[:SHOW_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    print("info " + json.dumps(info), flush=True)
    failed = len(tally.failures)
    for k, (v, unit) in metrics.items():
        print(f"{k:28s} {v:>16.6g} {unit}")
    print(f"{'failed_ratio':28s} {failed / tally.attempted:>16.6g} ratio "
          f"({failed} of {tally.attempted} attempts)")
    if "samples" in info:
        print(f"verdict times: {info['samples']} samples over {info['inputs']} inputs, "
              f"{info['passes']:.2f} passes")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": tally.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items() if k not in PRINT_ONLY}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
