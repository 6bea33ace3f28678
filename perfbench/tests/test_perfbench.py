"""Tests of the benchmark itself (not collected by the repository's tier-1
run, whose testpaths is tests/).  Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from bircheck import contracts, disasm, lifter  # noqa: E402

SEEDED = ("refute", "store-scale")


def texts(workload, seed):
    return [(i.name, i.dis, i.ctr) for i in workloads.build(workload, seed)]


@pytest.mark.parametrize("workload", SEEDED)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert texts(workload, 7) == texts(workload, 7)
    assert texts(workload, 7) != texts(workload, 8)


def test_corpus_is_the_shipped_fixtures():
    inputs = workloads.build("corpus", 1)
    assert [i.name for i in inputs] == list(workloads.CORPUS)
    assert "loopy" not in workloads.CORPUS
    assert all(i.expected == "verified" for i in inputs)
    assert texts("corpus", 1) == texts("corpus", 2)


@pytest.mark.parametrize("workload,seed", [(w, s) for w in workloads.WORKLOADS
                                           for s in (1, 2)])
def test_every_generated_input_parses_and_lifts(workload, seed):
    for inp in workloads.build(workload, seed):
        rc = contracts.parse_contract(inp.ctr)
        assert contracts.print_contract(rc) == inp.ctr
        sl = disasm.make_slice(disasm.parse_objdump(inp.dis), rc.entry, rc.endpoints)
        prog, _ = lifter.lift_slice(sl)
        contracts.to_bir(rc, prog)


def test_harrell_davis_quantiles():
    import run
    assert run.harrell_davis([3.0], 0.9) == 3.0
    assert abs(run.harrell_davis([2.0] * 8, 0.9) - 2.0) < 1e-9
    xs = [float(x) for x in range(1, 10)]
    assert abs(run.harrell_davis(xs, 0.5) - 5.0) < 1e-6    # symmetric data
    assert 5.0 < run.harrell_davis(xs, 0.9) < 9.0


def test_store_sizes_span_the_range():
    for seed in range(5):
        sizes = workloads.store_sizes(seed)
        assert len(sizes) == workloads.STORE_SCALE_PROGRAMS
        assert sizes[0] == 16 and sizes[-1] == 256
        assert all(16 <= n <= 256 for n in sizes)


def test_store_scale_contracts_hold_concretely():
    for inp in workloads.build("store-scale", 3):
        assert workloads.spot_check(inp, 3, trials=5) == ""


def test_refute_mutants_are_violated_concretely():
    for inp in workloads.build("refute", 3):
        assert inp.expected == "refuted"
        rc = contracts.parse_contract(inp.ctr)
        sl = disasm.make_slice(disasm.parse_objdump(inp.dis), rc.entry, rc.endpoints)
        assert workloads._violated(rc, sl, random.Random(0), tries=64)


# A small mix that exercises prune batches (isqrt), an alias-free memory
# proof (swap), a refutation with model parsing and replay (incr mutant) and
# a store-scale program, traced in a fresh interpreter.
_COUNTS_SCRIPT = r"""
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import run, workloads
run.prepare_environment()
inputs = [i for i in workloads.build("corpus", 5) if i.name in ("incr", "swap", "isqrt")]
inputs += workloads.build("refute", 5)[:1] + workloads.build("store-scale", 5)[:1]
spot = {i.name: workloads.spot_check(i, 5) for i in inputs if i.expected == "verified"}
tally, metrics, info = run.run_traced(inputs, spot, 1e-9, Path(sys.argv[2]), {})
print(json.dumps({"failed": len(tally.failures),
                  "counts": {k: v for k, (v, u) in metrics.items() if u == "count"}}))
"""


def _traced_counts(tmp_path, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env.pop("BIRCHECK_SOLVER", None)
    out = subprocess.run([sys.executable, "-c", _COUNTS_SCRIPT, str(ROOT),
                          str(tmp_path / f"trace{hashseed}.jsonl")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_per_layer_counts_repeat_across_runs(tmp_path):
    a = _traced_counts(tmp_path, 1)
    b = _traced_counts(tmp_path, 2)
    assert a["failed"] == 0 and b["failed"] == 0
    assert a["counts"] == b["counts"]
    counts = a["counts"]
    assert counts["smt.checks.feasibility"] > 0      # isqrt prune batches
    assert counts["smt.checks.entailment"] >= 5      # one per leaf at least
    assert counts["symexec.steps"] > 0
    assert counts["smt.models_checked"] > 0 and counts["smt.model_failures"] == 0

    # pool-thread checks are parented to the prune span that started the batch
    spans = [json.loads(line) for line in
             (tmp_path / "trace1.jsonl").read_text().splitlines()[1:]]
    by_id = {s["id"]: s for s in spans}
    pooled = [s for s in spans if s["name"] == "smt.check" and s["thread"] == "pool"]
    assert pooled
    assert all(by_id[s["parent"]]["name"] == "symexec.prune_infeasible" for s in pooled)
    assert all(s["self"] >= -1e-9 for s in spans)


def test_tracer_restores_patched_functions():
    import tracer
    before = [getattr(m, a) for m, a, *_ in tracer.PATCHES]
    with tracer.Tracer():
        assert any(getattr(m, a) is not f
                   for (m, a, *_), f in zip(tracer.PATCHES, before))
    assert [getattr(m, a) for m, a, *_ in tracer.PATCHES] == before


def _bench_only_copy(tmp_path):
    dst = tmp_path / "bench_only"
    shutil.copytree(BENCH, dst / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    return dst


def _run_cli(cwd, env_extra=None):
    env = dict(os.environ, **(env_extra or {}))
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True, env=env, timeout=120)


def test_fails_without_sources(tmp_path):
    proc = _run_cli(_bench_only_copy(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_a_configured_solver():
    proc = _run_cli(ROOT, {"BIRCHECK_SOLVER": "z3 -in"})
    assert proc.returncode != 0
    assert "BIRCHECK_SOLVER" in proc.stderr
    assert '"correct"' not in proc.stdout
