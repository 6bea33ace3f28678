import dataclasses
import importlib.util
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import bircheck
from bircheck import bir
from bircheck.bir import binop, binpred, cast, const, load, store, sym
from bircheck import contracts
from bircheck.corpus import fixture_config, fixture_names
from bircheck.smt import (Obligation, SolverConfig, SolverCrash, check, check_many,
                          default_solver_argv, encode, model_check_stats)
from bircheck.smt import backend
from bircheck.smt.minismt import run_script

from conftest import load_fixture

S = sym("s_x10", bir.Imm64)
P = sym("pre_x10", bir.Imm64)
M = sym("s_MEM8", bir.Mem)
A = sym("a", bir.Imm64)
V = sym("v", bir.Imm64)


def run_minismt(text):
    out = io.StringIO()
    run_script(text, out)
    return out.getvalue()


def test_encode_incr_entailment_is_unsat(solver):
    hyp = binpred("eq", S, P)
    goal = binpred("eq", binop("plus", S, const(64, 1)),
                   binop("plus", P, const(64, 1)))
    obl = Obligation("entailment", (hyp,), goal, origin="incr-post")
    text = encode(obl)
    assert "(set-logic QF_ABV)" in text
    assert "(declare-const s_x10 (_ BitVec 64))" in text
    assert text.strip().endswith("(get-model)")
    v = check(obl, solver)
    assert v.is_unsat


def test_feasibility_of_constant_false(solver):
    obl = Obligation("feasibility", (), bir.false_exp)
    assert check(obl, solver).is_unsat


def test_feasibility_range_model_reevaluates(solver):
    hyp1 = binpred("ult", S, const(64, 10))
    hyp2 = binpred("ult", const(64, 3), S)
    obl = Obligation("feasibility", (hyp1, hyp2), bir.true_exp)
    v = check(obl, solver)
    assert v.is_sat
    assert 4 <= v.model["s_x10"] <= 9
    # model soundness was verified inside check(); confirm via bir eval too
    assert bir.eval_exp(hyp1, {}, v.model) == 1
    assert bir.eval_exp(hyp2, {}, v.model) == 1


def test_load_store_byte_splitting_against_eval(solver):
    rng = random.Random(41)
    for width in (8, 16, 32, 64):
        addr = const(64, rng.getrandbits(48))
        stored = cast("low", width, V) if width < 64 else V
        e = load(store(M, addr, stored), addr, width)
        goal = binpred("eq", e, stored)
        assert check(Obligation("entailment", (), goal), solver).is_unsat
        # and the same verdicts hold for random concrete instances via eval
        for _ in range(20):
            mem = {rng.getrandbits(64): rng.getrandbits(8) for _ in range(3)}
            interp = {"s_MEM8": mem, "v": rng.getrandbits(64)}
            assert bir.eval_exp(goal, {}, interp) == 1


def test_timeout_zero_is_unknown():
    cfg = SolverConfig(timeout=0)
    obl = Obligation("feasibility", (), bir.true_exp)
    v = check(obl, cfg)
    assert v.status == "unknown" and v.reason == "timeout"


@pytest.mark.parametrize("kw", [{"timeout": -1}, {"timeout": float("inf")},
                                {"timeout": float("nan")}, {"argv": []},
                                {"argv": ["no-such-solver-binary"]},
                                {"timeout": None}])  # no wait without a bound
def test_solver_config_validates(kw):
    with pytest.raises(ValueError):
        SolverConfig(**kw)


def test_solver_config_fields_are_the_settable_ones():
    assert [f.name for f in dataclasses.fields(SolverConfig) if f.init] == \
        ["argv", "timeout", "dump_dir"]
    assert SolverConfig().pool == 4


def test_obligation_kinds_are_feasibility_and_entailment():
    assert backend.OBLIGATION_KINDS == ("feasibility", "entailment")
    with pytest.raises(ValueError):
        Obligation("simplification", (), bir.true_exp)


def test_default_solver_needs_no_pythonpath(tmp_path):
    # bircheck reachable through sys.path only: the solver child must not
    # need to import it
    src = str(Path(bircheck.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from bircheck import contracts, disasm, lifter\n"
            "from bircheck.corpus import fixture\n"
            "dis, rc = fixture('incr')\n"
            "sl = disasm.make_slice(disasm.parse_objdump(dis), rc.entry, rc.endpoints)\n"
            "prog, _ = lifter.lift_slice(sl)\n"
            "print(contracts.verify(contracts.to_bir(rc, prog)).verdict)\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "BIRCHECK_SOLVER")}
    proc = subprocess.run([sys.executable, "-c", code, src], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "verified", proc.stderr


# The bundled solver's bytecode cache, on a copy of the package, so each test
# owns the __pycache__ its solver children write.

UNSAT_SCRIPT = "(declare-const x (_ BitVec 8))\n(assert (distinct x x))\n(check-sat)\n"


def _package_copy(tmp_path):
    """The copy's `default_solver_argv()`, its minismt.py, and the environment
    its solver children run in: no BIRCHECK_SOLVER, no PYTHONPATH, and
    PYTHONDONTWRITEBYTECODE set."""
    root = tmp_path / "src"
    shutil.copytree(Path(bircheck.__file__).parent, root / "bircheck",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "BIRCHECK_SOLVER", "PYTHONPYCACHEPREFIX")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    code = ("import json, sys; sys.path.insert(0, sys.argv[1])\n"
            "from bircheck.smt import default_solver_argv\n"
            "print(json.dumps(default_solver_argv()))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(root)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout), root / "bircheck" / "smt" / "minismt.py", env


def _solve(argv, env, text=UNSAT_SCRIPT):
    proc = subprocess.run(argv, input=text, env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.stdout


def test_bundled_solver_writes_and_reuses_its_bytecode_cache(tmp_path):
    argv, minismt, env = _package_copy(tmp_path)
    cache = Path(importlib.util.cache_from_source(str(minismt)))
    assert not cache.exists()
    first = _solve(argv, env)
    assert first == "unsat\n" and cache.is_file()
    written = cache.stat()
    assert _solve(argv, env) == first
    again = cache.stat()  # read, not written again
    assert (again.st_ino, again.st_mtime_ns) == (written.st_ino, written.st_mtime_ns)


def test_bundled_solver_never_runs_stale_bytecode(tmp_path):
    argv, minismt, env = _package_copy(tmp_path)
    assert _solve(argv, env) == "unsat\n"
    assert Path(importlib.util.cache_from_source(str(minismt))).is_file()
    old = minismt.read_text()
    new = old.replace("def main(argv=None):\n",
                      "def main(argv=None):\n    sys.stdout.write('unknown\\n')\n    return 1\n", 1)
    assert new != old
    # The import system takes the cache as current when the source's size
    # and mtime, in whole seconds, match the ones it recorded, as for any
    # Python import: an edit that kept the size within the same second would
    # be missed. This one changes the size, and the mtime moves on 2 s.
    minismt.write_text(new)
    st = minismt.stat()
    os.utime(minismt, ns=(st.st_atime_ns, st.st_mtime_ns + 2_000_000_000))
    assert _solve(argv, env) == "unknown\n"


def test_bundled_solver_answers_when_its_cache_cannot_be_written(tmp_path):
    argv, minismt, env = _package_copy(tmp_path)
    # a plain file where the cache directory would go (chmod would not stop
    # a root user from writing)
    blocker = minismt.parent / "__pycache__"
    blocker.write_text("")
    sat = "(declare-const x (_ BitVec 8))\n(assert (= x (_ bv5 8)))\n(check-sat)\n(get-model)\n"
    for _ in range(2):
        assert _solve(argv, env) == "unsat\n"
        assert _solve(argv, env, sat) == run_minismt(sat)
    assert blocker.is_file() and blocker.read_text() == ""


def test_model_counters_lose_no_update_across_threads(monkeypatch):
    monkeypatch.setattr(backend, "_stats", {"sat_models_checked": 0, "sat_model_failures": 0})
    n, per = 8, 5000

    def bump():
        for _ in range(per):
            backend._count("sat_models_checked")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bump) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert model_check_stats() == {"sat_models_checked": n * per, "sat_model_failures": 0}


def test_model_soundness_counters_advance(solver):
    before = model_check_stats()
    v = check(Obligation("feasibility", (), binpred("eq", S, const(64, 5))), solver)
    assert v.is_sat and v.model["s_x10"] == 5
    after = model_check_stats()
    assert after["sat_models_checked"] == before["sat_models_checked"] + 1
    assert after["sat_model_failures"] == before["sat_model_failures"]


def test_abbreviation_defs_are_inlined(solver):
    a = sym("ab0", bir.Imm64)
    defs = ((a, binop("plus", S, const(64, 1))),)
    goal = binpred("eq", a, binop("plus", S, const(64, 1)))
    v = check(Obligation("entailment", (), goal, defs=defs), solver)
    assert v.is_unsat
    # the model binds the free symbols only; a definition's value follows
    v2 = check(Obligation("feasibility", (binpred("eq", a, const(64, 9)),),
                          bir.true_exp, defs=defs), solver)
    assert v2.is_sat and v2.model == {"s_x10": 8}
    assert bir.eval_exp(defs[0][1], {}, v2.model) == 9


def test_unreached_definitions_are_not_encoded():
    # ab1 (and q, used only there) is never reached; ab0 is reached once, so
    # it is written inline rather than named
    q = sym("q", bir.Imm64)
    ab0, ab1 = sym("ab0", bir.Imm64), sym("ab1", bir.Imm64)
    defs = ((ab0, binop("plus", S, const(64, 1))), (ab1, binop("mult", ab0, q)))
    obl = Obligation("entailment", (), binpred("ult", ab0, P), defs=defs)
    text = encode(obl)
    assert "define-fun" not in text and "ab0" not in text and "ab1" not in text
    assert "(bvadd s_x10 (_ bv1 64))" in text
    assert sorted(re.findall(r"\(declare-const (\S+) ", text)) == ["pre_x10", "s_x10"]


def test_encoding_faithfulness_random_ground_exprs(solver):
    # solver-proved equalities agree with the concrete evaluator
    from test_bir import random_exp
    rng = random.Random(47)
    for _ in range(40):
        e = random_exp(rng, rng.randrange(1, 6), rng.choice([8, 32, 64]), [])
        want = bir.eval_exp(e, {})
        right = check(Obligation("entailment", (),
                                 binpred("eq", e, const(e.ty.width, want))), solver)
        assert right.is_unsat, bir.print_exp(e)
        wrong = check(Obligation("entailment", (),
                                 binpred("eq", e, const(e.ty.width, want ^ 1))), solver)
        assert wrong.is_sat, bir.print_exp(e)


def test_entailment_monotone_under_extra_hypotheses(solver):
    goal = binpred("ule", const(64, 4), S)
    base = (binpred("ule", const(64, 6), S),)
    v1 = check(Obligation("entailment", base, goal), solver)
    assert v1.is_unsat
    for extra in (binpred("ult", S, const(64, 100)),
                  binpred("eq", P, const(64, 0)),
                  binpred("eq", S, const(64, 7))):
        v2 = check(Obligation("entailment", base + (extra,), goal), solver)
        assert v2.is_unsat


def test_dump_files_replay(tmp_path, solver, monkeypatch):
    cfg = SolverConfig(dump_dir=str(tmp_path))
    obl = Obligation("entailment", (binpred("eq", S, P),),
                     binpred("eq", binop("plus", S, const(64, 1)),
                             binop("plus", P, const(64, 1))), origin="post@0x1048c")
    v = check(obl, cfg)
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].suffix == ".smt2"
    monkeypatch.delenv("BIRCHECK_SOLVER", raising=False)
    replay = subprocess.run(default_solver_argv() + [str(files[0])],
                            capture_output=True, text=True)
    assert replay.stdout.split()[0] == v.status


def test_check_many_numbers_dumps_in_input_order(tmp_path):
    # sizes fall along the batch, so later (smaller) obligations tend to
    # finish encoding first on the pool threads; timeout 0 dumps each script
    # and answers unknown without starting a solver
    from bircheck.smt import check_many
    obls = []
    for i in range(8):
        terms = [binop("plus", S, const(64, k)) for k in range(200 * (8 - i))]
        while len(terms) > 1:  # balanced, so the tree stays shallow
            terms = [binop("xor", *terms[j:j + 2]) if j + 1 < len(terms) else terms[j]
                     for j in range(0, len(terms), 2)]
        e = terms[0]
        obls.append(Obligation("feasibility", (), binpred("ne", e, const(64, i)),
                               origin=f"batch{i}"))
    cfg = SolverConfig(dump_dir=str(tmp_path), timeout=0)
    assert {v.status for v in check_many(obls, cfg)} == {"unknown"}
    files = sorted(tmp_path.iterdir())
    assert [f.name for f in files] == [f"{i + 1:04d}_feasibility_batch{i}.smt2"
                                       for i in range(8)]
    assert [f.read_text() for f in files] == [encode(o) for o in obls]


def test_mem_model_parsing(solver):
    # a sat obligation whose model must include array contents
    hyp = binpred("eq", load(M, const(64, 0x1000), 64), const(64, 0x1122334455667788))
    v = check(Obligation("feasibility", (hyp,), bir.true_exp), solver)
    assert v.is_sat
    mem = v.model["s_MEM8"]
    assert bir.load_bytes(mem, 0x1000, 8) == 0x1122334455667788


def test_crash_on_bad_solver():
    from bircheck.smt import SolverCrash
    cfg = SolverConfig(argv=[sys.executable, "-c", "print('garbage')"])
    with pytest.raises(SolverCrash):
        check(Obligation("feasibility", (), bir.true_exp), cfg)


# -- bundled solver internals --------------------------------------------------

def test_minismt_unsat_and_sat_basics():
    assert run_minismt("(declare-const s (_ BitVec 64))"
                       "(assert (= s (_ bv1 64)))(assert (= s (_ bv2 64)))"
                       "(check-sat)").strip() == "unsat"
    out = run_minismt("(declare-const x (_ BitVec 8))"
                      "(assert (= (bvmul x (_ bv3 8)) (_ bv21 8)))"
                      "(check-sat)(get-model)")
    assert out.splitlines()[0] == "sat"
    assert "#x07" in out


def test_minismt_signed_compare():
    out = run_minismt("(declare-const x (_ BitVec 8))"
                      "(assert (bvslt x (_ bv0 8)))"
                      "(assert (bvult x (_ bv128 8)))(check-sat)")
    assert out.strip() == "unsat"


def test_minismt_udiv_urem_by_zero_semantics():
    # SMTLIB fixes x udiv 0 = all ones; the solver reads no bvurem, and the
    # lifted remu/rem semantics are checked by lifter.check_simulation
    out = run_minismt("(declare-const x (_ BitVec 8))"
                      "(assert (distinct (bvudiv x (_ bv0 8)) (_ bv255 8)))"
                      "(check-sat)")
    assert out.strip() == "unsat"


def test_minismt_array_congruence():
    out = run_minismt("(declare-const m (Array (_ BitVec 64) (_ BitVec 8)))"
                      "(declare-const i (_ BitVec 64))(declare-const j (_ BitVec 64))"
                      "(assert (= i j))"
                      "(assert (distinct (select m i) (select m j)))(check-sat)")
    assert out.strip() == "unsat"


def test_minismt_fully_deterministic():
    script = ("(declare-const s (_ BitVec 64))(declare-const t (_ BitVec 64))"
              "(assert (bvult s t))(assert (bvult t (_ bv100 64)))"
              "(check-sat)(get-model)")
    assert run_minismt(script) == run_minismt(script)


def test_minismt_divider_circuits_against_brute_force():
    # pin operands with inequalities (not equalities) so the word-level
    # rewriter cannot fold the division and the gate-level divider is used;
    # divisors with the top bit set stress the widened remainder
    rng = random.Random(61)
    cases = [(0xFF, 0x81), (0xFF, 0xC0), (0x80, 0x81), (0xFE, 0xFF), (7, 0)]
    cases += [(rng.getrandbits(8), rng.getrandbits(8) | 0x80) for _ in range(6)]
    for a, b in cases:
        q = 0xFF if b == 0 else a // b
        pin = (f"(declare-const x (_ BitVec 8))(declare-const y (_ BitVec 8))"
               f"(assert (bvule x (_ bv{a} 8)))(assert (bvule (_ bv{a} 8) x))"
               f"(assert (bvule y (_ bv{b} 8)))(assert (bvule (_ bv{b} 8) y))")
        assert run_minismt(pin + f"(assert (distinct (bvudiv x y) (_ bv{q} 8)))"
                                 "(check-sat)").strip() == "unsat", (a, b)


def test_minismt_vs_eval_on_random_formulas():
    # cross-check the solver's sat/unsat verdicts against brute-force
    # evaluation over 4-bit variables
    from test_bir import random_exp, _oracle
    rng = random.Random(53)
    a = bir.BirVar("a", bir.Imm8)
    for trial in range(30):
        e = random_exp(rng, 3, 8, [a])
        want_sat = any(_oracle(binpred("eq", e, const(8, 0)),
                               {a: x}) == 1 for x in range(256))
        obl = Obligation("feasibility",
                         (binpred("eq", bir.subst(e, var_map={a: sym("va", bir.Imm8)}),
                                  const(8, 0)),), bir.true_exp)
        v = check(obl, SolverConfig())
        assert v.is_sat == want_sat, bir.print_exp(e)


def test_encode_and_bundled_solver_handle_depth_5000():
    # a 5000-deep chain through encode, then minismt's term parser,
    # equality elimination (substitute), bit-blaster and model evaluator,
    # all at the default recursion limit
    from bircheck.smt.backend import parse_model
    from test_bir import DEPTH, _chain_value, _deep_chain
    assert sys.getrecursionlimit() <= 1000 < DEPTH
    x, y, z = (sym(n, bir.Imm8) for n in ("x", "y", "z"))
    chain = bir.subst(_deep_chain(), var_map={bir.BirVar("x", bir.Imm8): x})
    hyps = (binpred("eq", x, const(8, 0x5A)),   # eliminated into the chain
            binpred("eq", z, chain),            # z is evaluated from the chain
            binpred("eq", binop("plus", z, y), const(8, 7)))  # blasted
    obl = Obligation("feasibility", hyps, bir.true_exp)
    text = encode(obl)
    assert text.count("bvxor") == DEPTH // 2
    out = run_minismt(text)
    assert out.startswith("sat\n")
    model = parse_model(out.partition("\n")[2])
    assert model["x"] == 0x5A
    assert model["z"] == _chain_value(0x5A, model["y"])
    assert (model["z"] + model["y"]) & 0xFF == 7
    for h in hyps:
        assert bir.eval_exp(h, {}, model) == 1


def test_minismt_extract_through_a_3000_deep_concat_chain():
    # TermBank.extract descends the chain in a loop, not by recursion
    chain = "x"
    for _ in range(3000):
        chain = f"(concat y {chain})"
    assert sys.getrecursionlimit() < 3000
    out = run_minismt("(set-logic QF_BV)\n(declare-const x (_ BitVec 8))\n"
                      "(declare-const y (_ BitVec 8))\n"
                      f"(assert (= ((_ extract 7 0) {chain}) x))\n(check-sat)\n")
    assert out == "sat\n"


# -- the fragment encode writes ------------------------------------------------

def _encodable_constructs():
    """One expression for every construct `encode` can write."""
    x8, y8 = sym("x8", bir.Imm8), sym("y8", bir.Imm8)
    x64, y64 = sym("x64", bir.Imm64), sym("y64", bir.Imm64)
    out = []
    for x, y in ((x8, y8), (x64, y64)):
        for op in backend._SMT_OPS:
            out.append((binpred if op in bir.PRED_OPS else binop)(op, x, y))
        out += [bir.unop(op, x) for op in bir.UN_OPS]
        out.append(bir.ite(binpred("ult", x, y), x, y))
    for kind in bir.CAST_KINDS:
        for src, width in ((x8, 64), (x64, 32), (x64, 64)):
            try:
                out.append(cast(kind, width, src))
            except bir.TypeMismatch:
                pass
    m, a, b = sym("m", bir.Mem), sym("a", bir.Imm64), sym("b", bir.Imm64)
    for width in bir.ACCESS_WIDTHS:
        out.append(load(m, a, width))
        out.append(load(store(m, a, cast("low", width, x64)), b, 64))
    shared = binop("plus", x64, y64)
    out.append(binop("mult", shared, shared))  # last: `shared` is written as .t0
    return out


def _solve_in_process(obl):
    """minismt's answer to `obl`; a model must satisfy it under bir.eval_exp."""
    out = io.StringIO()
    run_script(encode(obl), out)
    status, _, rest = out.getvalue().partition("\n")
    if status == "sat":
        backend._verify_model(obl, backend._extend_model(obl, backend.parse_model(rest)))
    return status


def test_minismt_solves_every_construct_encode_writes():
    # inputs pinned by equalities fold away in the rewriter; pinned by two
    # bvule each they reach the blaster.  Either way the solver must agree
    # with bir.eval_exp on the value of the construct.
    assert set(backend._SMT_OPS) == set(bir.BIN_OPS + bir.PRED_OPS)
    assert set(bir.ACCESS_WIDTHS) == {8, 16, 32, 64}
    constructs = _encodable_constructs()
    square = constructs[-1]
    assert "(define-fun .t0 " in encode(Obligation("feasibility", (),
                                                   binpred("eq", square, const(64, 0))))
    rng = random.Random(71)
    a = rng.getrandbits(64)
    # 8-bit shifts mostly shift everything out, 64-bit ones stay in range
    vals = {"x8": rng.getrandbits(8), "y8": rng.getrandbits(8), "x64": rng.getrandbits(64),
            "y64": rng.randrange(64), "a": a, "b": (a + rng.randrange(-7, 8)) % 2 ** 64}
    addrs = {(base + k) % 2 ** 64 for base in (vals["a"], vals["b"]) for k in range(8)}
    vals["m"] = {addr: rng.getrandbits(8) for addr in addrs}
    for e in constructs:
        want = const(e.ty.width, bir.eval_exp(e, {}, vals))
        goal = binpred("eq", e, want)
        syms = bir.collect_syms(e).values()
        mem_pins = tuple(binpred("eq", load(s, const(64, addr), 8), const(8, byte))
                         for s in syms if s.ty is bir.Mem
                         for addr, byte in vals["m"].items())
        scalars = [(s, const(s.ty.width, vals[s.name])) for s in syms if s.ty is not bir.Mem]
        by_eq = tuple(binpred("eq", s, c) for s, c in scalars) + mem_pins
        by_ule = tuple(binpred("ule", *p) for s, c in scalars
                       for p in ((s, c), (c, s))) + mem_pins
        shown = bir.print_exp(e)
        assert _solve_in_process(Obligation("entailment", by_eq, goal)) == "unsat", shown
        assert _solve_in_process(Obligation("entailment", by_ule, goal)) == "unsat", shown
        assert _solve_in_process(Obligation("feasibility", by_eq, goal)) == "sat", shown


REJECTED_SCRIPTS = {
    "let": "(declare-const x (_ BitVec 8))(assert (let ((y x)) (= y x)))",
    "bool-sort": "(declare-const p Bool)(assert p)",
    "bvurem": "(declare-const x (_ BitVec 8))(assert (= (bvurem x (_ bv3 8)) (_ bv1 8)))",
    "rotate_left": "(declare-const x (_ BitVec 8))(assert (= ((_ rotate_left 1) x) x))",
    "array-eq": "(declare-const m (Array (_ BitVec 64) (_ BitVec 8)))"
                "(declare-const n (Array (_ BitVec 64) (_ BitVec 8)))(assert (= m n))",
    "declare-fun": "(declare-fun x () (_ BitVec 8))",
    "unary-eq": "(declare-const x (_ BitVec 8))(assert (= x))",
    "bv-without-width": "(declare-const x (_ BitVec 8))(assert (= x (_ bv5)))",
    "extract-one-index": "(declare-const x (_ BitVec 8))(assert (= ((_ extract 3) x) #b1))",
    "unterminated-symbol": "(declare-const |x (_ BitVec 8))",
    "numeral-past-int-limit": "(declare-const x (_ BitVec 8))(assert (= x (_ bv%s 8)))" % ("9" * 5000),
}


@pytest.mark.parametrize("name", REJECTED_SCRIPTS)
def test_minismt_answers_unknown_outside_the_fragment(name, monkeypatch):
    text = f"(set-logic QF_ABV)\n{REJECTED_SCRIPTS[name]}\n(check-sat)\n(get-model)\n"
    monkeypatch.delenv("BIRCHECK_SOLVER", raising=False)
    proc = subprocess.run(default_solver_argv(), input=text, capture_output=True, text=True)
    assert (proc.stdout, proc.returncode) == ("unknown\n", 1)
    assert any(line.startswith("minismt: ") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


def test_minismt_runs_as_a_module_without_a_second_load():
    # `bircheck.smt` must not import minismt: runpy would then execute it a
    # second time and warn, which -W error turns into exit 1 with no answer
    env = dict(os.environ, PYTHONPATH=str(Path(bircheck.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "bircheck.smt.minismt"],
                          input="(declare-const x (_ BitVec 8))(assert (distinct x x))"
                                "(check-sat)\n",
                          capture_output=True, text=True, env=env)
    assert (proc.stdout, proc.returncode, proc.stderr) == ("unsat\n", 0, "")


# -- the bundled solver's session: one child per run ---------------------------

ENTAILED = Obligation("entailment", (binpred("eq", S, P),), binpred("eq", P, S))


def _serve(scripts):
    """(printed, reason) for each script, answered by one `--serve` child."""
    request = b"".join(b"%d\n%s" % (len(t.encode()), t.encode()) for t in scripts)
    proc = subprocess.run(default_solver_argv() + ["--serve"], input=request,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    replies, rest = [], proc.stdout
    while rest:
        head, _, rest = rest.partition(b"\n")
        n_out, n_err = map(int, head.split())
        replies.append((rest[:n_out].decode(), rest[n_out:n_out + n_err].decode()))
        rest = rest[n_out + n_err:]
    return replies


def test_serve_answers_every_fixture_dump_as_a_one_shot_run(tmp_path, monkeypatch):
    monkeypatch.delenv("BIRCHECK_SOLVER", raising=False)
    dumps = []
    for name in fixture_names():
        _, prog, _, rc = load_fixture(name)
        if rc is None:
            continue
        contracts.verify(contracts.to_bir(rc, prog), fixture_config(name),
                         SolverConfig(dump_dir=str(tmp_path / name)))
        dumps += sorted((tmp_path / name).glob("*.smt2"))  # loopy makes none
    assert len(dumps) >= 49 + 12  # motor's and isqrt's (--unroll 5) among them
    texts = [d.read_text() for d in dumps]
    rejected = f"(set-logic QF_ABV)\n{REJECTED_SCRIPTS['unary-eq']}\n(check-sat)\n"
    replies = _serve([texts[0], rejected, *texts[1:]])
    printed, reason = replies.pop(1)
    assert printed == "unknown\n" and reason.startswith("minismt: ")
    assert "Traceback" not in reason
    assert len(replies) == len(dumps)  # the same child answers after the unknown
    for d, reply in zip(dumps, replies):
        one_shot = subprocess.run(default_solver_argv() + [str(d)], capture_output=True,
                                  text=True, timeout=120)
        # the verdict line and the model text, byte for byte
        assert reply == (one_shot.stdout, one_shot.stderr), d.name


def test_checks_in_one_session_share_one_child(spawned):
    cfg = SolverConfig()
    with cfg.session():
        assert check(ENTAILED, cfg).is_unsat
        assert all(v.is_unsat for v in check_many([ENTAILED] * 5, cfg))
        assert len(spawned) == 1 and spawned[0].returncode is None
    assert spawned[0].returncode == -signal.SIGKILL  # killed and reaped
    # a check outside any session starts and reaps a child of its own
    assert check(ENTAILED, cfg).is_unsat
    assert len(spawned) == 2 and spawned[1].returncode == -signal.SIGKILL


def test_session_timeout_kills_the_child_and_the_next_check_gets_a_fresh_one(spawned):
    # a ring identity minismt can only bit-blast: far beyond a second at 16 bits
    k = sym("k", bir.Imm16)
    k1 = binop("plus", k, const(16, 1))
    rhs = binop("plus", binop("plus", binop("mult", k, k), binop("mult", const(16, 2), k)),
                const(16, 1))
    ring = Obligation("entailment", (), binpred("eq", binop("mult", k1, k1), rhs))
    cfg = SolverConfig(timeout=1)
    with cfg.session():
        t0 = time.monotonic()
        v = check(ring, cfg)
        assert (v.status, v.reason) == ("unknown", "timeout")
        assert time.monotonic() - t0 < 5
        assert spawned[0].returncode == -signal.SIGKILL  # killed and reaped
        assert check(ENTAILED, cfg).is_unsat
    assert len(spawned) == 2 and spawned[1].returncode == -signal.SIGKILL


def test_session_child_killed_between_checks_is_a_crash(spawned):
    cfg = SolverConfig()
    with cfg.session():
        assert check(ENTAILED, cfg).is_unsat
        os.killpg(spawned[0].pid, signal.SIGKILL)
        with pytest.raises(SolverCrash, match="exited with status -9"):
            check(ENTAILED, cfg)
        assert spawned[0].returncode == -signal.SIGKILL
        assert check(ENTAILED, cfg).is_unsat  # the next check starts a fresh child
    assert len(spawned) == 2 and spawned[1].returncode == -signal.SIGKILL


def test_threads_sharing_a_session_each_get_their_own_answer(spawned):
    # more threads than cores, switching often: a reply read by the wrong
    # thread would give it another thread's model
    cfg, answers, errors = SolverConfig(), {}, []

    def ask(k):
        try:
            for _ in range(5):
                v = check(Obligation("feasibility", (), binpred("eq", S, const(64, k))), cfg)
                answers.setdefault(k, set()).add(v.model["s_x10"])
        except BaseException as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with cfg.session():
            threads = [threading.Thread(target=ask, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert answers == {k: {k} for k in range(8)}
    assert len(spawned) == 1 and spawned[0].returncode == -signal.SIGKILL
