import dataclasses
import itertools
import random

import pytest

from bircheck import bir, contracts, isa, lifter, symexec
from bircheck.bir import (BirBlock, BirProgram, BirVar, Assign, CJmp, Jmp,
                          binop, binpred, const, den, load, store, sym)
from bircheck.lifter import MEM8, xvar
from bircheck.symexec import (EngineConfig, SymbolicState, abbreviate,
                              execute, init_state, matches,
                              prune_infeasible, simplify_exp, step_block)

from conftest import load_fixture
from oracles import expand_abbrevs, run_program

X10 = xvar(10)
S0 = sym("s0", bir.Imm64)
PRE = sym("pre_x10", bir.Imm64)


def incr_program():
    return BirProgram([lifter.lift_instr(isa.Instr("addi", rd=10, rs1=10, imm=1),
                                         0x10488)])


def test_matches_direct_definition():
    st = SymbolicState(path=bir.true_exp, env={X10: S0}, at=0x10488)
    assert matches({"s0": 41}, st, {X10: 41}, 0x10488)
    assert not matches({"s0": 41}, st, {X10: 40}, 0x10488)
    assert not matches({"s0": 41}, st, {X10: 41}, 0x1048C)
    # false path condition never matches
    st2 = dataclasses.replace(st, path=bir.false_exp)
    assert not matches({"s0": 41}, st2, {X10: 41}, 0x10488)


def test_init_state_fresh_symbols_and_path():
    prog = incr_program()
    pre = binpred("eq", den(X10), PRE)
    st = init_state(prog, 0x10488, pre)
    assert st.env[X10] == sym("s_x10", bir.Imm64)
    assert st.path == binpred("eq", sym("s_x10", bir.Imm64), PRE)
    assert st.at == 0x10488
    # deterministic: a second run yields identical names
    st2 = init_state(prog, 0x10488, pre)
    assert st2.env == st.env and st2.path == st.path


def test_init_state_trivial_precondition():
    st = init_state(incr_program(), 0x10488, bir.true_exp)
    assert st.path is bir.true_exp


def test_step_block_incr():
    prog = incr_program()
    st = init_state(prog, 0x10488, binpred("eq", den(X10), PRE))
    (nxt,) = step_block(prog, st)
    assert nxt.at == 0x1048C
    assert nxt.env[X10] == binop("plus", sym("s_x10", bir.Imm64), const(64, 1))


def test_step_block_constant_condition_prunes_syntactically():
    blk = BirBlock(0x100, "", (), CJmp(bir.true_exp, 0x104, 0x108))
    prog = BirProgram([blk])
    st = init_state(prog, 0x100, bir.true_exp)
    out = step_block(prog, st)
    assert [s.at for s in out] == [0x104]


def test_step_block_computed_jump_with_unique_model(solver):
    prog = BirProgram([lifter.lift_instr(isa.Instr("jalr", rd=0, rs1=1, imm=0),
                                         0x1048C)])
    x1 = xvar(1)
    pre = binpred("eq", den(x1), const(64, 0x10500))
    st = init_state(prog, 0x1048C, pre)
    out = step_block(prog, st, solver)
    assert [s.at for s in out] == [0x10500]


def test_step_block_indirect_unbounded(solver, monkeypatch):
    monkeypatch.setattr(symexec, "MAX_INDIRECT_TARGETS", 3)
    prog = BirProgram([lifter.lift_instr(isa.Instr("jalr", rd=0, rs1=1, imm=0),
                                         0x1048C)])
    st = init_state(prog, 0x1048C, bir.true_exp)
    with pytest.raises(symexec.IndirectTargetUnbounded, match="more than 3"):
        step_block(prog, st, solver)


def test_prune_infeasible(solver):
    s = sym("s", bir.Imm64)
    contra = SymbolicState(path=binop("and", binpred("eq", s, const(64, 1)),
                                      binpred("eq", s, const(64, 2))),
                           env={}, at=0)
    sat = SymbolicState(path=binop("and", binpred("ult", s, const(64, 10)),
                                   binpred("ult", const(64, 3), s)),
                        env={}, at=0)
    kept = prune_infeasible([contra, sat], solver)
    assert kept == [sat]


def test_prune_after_branch_with_pinned_value(solver):
    z = BirVar("z", bir.Imm64)
    blk = BirBlock(0x100, "", (), CJmp(binpred("eq", den(z), const(64, 0)),
                                       0x104, 0x108))
    prog = BirProgram([blk])
    st = init_state(prog, 0x100, binpred("eq", den(z), const(64, 5)))
    children = prune_infeasible(step_block(prog, st), solver)
    assert [s.at for s in children] == [0x108]


# -- simplification ----------------------------------------------------------

def test_simplify_load_over_store_same_address():
    m, a, v = den(MEM8), den(X10), den(xvar(11))
    e = load(store(m, a, v), a, 64)
    assert simplify_exp(e) == v


def test_simplify_load_over_store_contained():
    m, a, v = den(MEM8), den(X10), den(xvar(11))
    e = load(store(m, a, v), binop("plus", a, const(64, 2)), 16)
    out = simplify_exp(e)
    assert out == bir.cast("low", 16, binop("lshr", v, const(64, 16)))


def test_simplify_add_cancel():
    e = binop("minus", binop("plus", S0, const(64, 1)), const(64, 1))
    assert simplify_exp(e) == S0


_X8, _X64, _A = (sym("x8", bir.Imm8), sym("x64", bir.Imm64), sym("a", bir.Imm64))
_MEM = sym("m", bir.Mem)
_STORED = store(_MEM, _A, bir.cast("low", 8, _X64))


@pytest.mark.parametrize("before,after", [
    (binop("or", _X64, const(64, 2 ** 64 - 1)), const(64, 2 ** 64 - 1)),
    (binop("udiv", _X64, const(64, 1)), _X64),
    (binpred("eq", binop("plus", _A, const(64, 8)), binop("plus", _A, const(64, 16))),
     bir.false_exp),
    (binpred("ne", binop("plus", _A, const(64, 8)), _A), bir.true_exp),
    (bir.cast("low", 8, bir.cast("low", 32, _X64)), bir.cast("low", 8, _X64)),
    (bir.cast("zext", 64, bir.cast("zext", 32, _X8)), bir.cast("zext", 64, _X8)),
    (bir.cast("sext", 64, bir.cast("sext", 16, _X8)), bir.cast("sext", 64, _X8)),
    (store(_STORED, _A, bir.cast("low", 8, _A)), store(_MEM, _A, bir.cast("low", 8, _A))),
], ids=["or_ones", "udiv_one", "same_base_eq", "same_base_ne", "low_low",
        "zext_zext", "sext_sext", "store_over_store"])
def test_simplifier_rule_fires_and_keeps_the_value(before, after):
    assert simplify_exp(before) is after
    rng = random.Random(53)
    for _ in range(50):
        a = rng.getrandbits(64)
        interp = {"x8": rng.getrandbits(8), "x64": rng.getrandbits(64), "a": a,
                  "m": {(a + k) % 2 ** 64: rng.getrandbits(8) for k in range(-2, 3)}}
        got, want = bir.eval_exp(before, {}, interp), bir.eval_exp(after, {}, interp)
        assert bir.mem_equal(got, want) if before.ty is bir.Mem else got == want


def test_simplify_preserves_eval_on_random_exprs():
    from test_bir import random_exp
    rng = random.Random(31)
    a = BirVar("a", bir.Imm64)
    for _ in range(300):
        e = random_exp(rng, 4, rng.choice([8, 32, 64]), [a])
        s = simplify_exp(e)
        for _ in range(5):
            env = {a: rng.getrandbits(64)}
            assert bir.eval_exp(e, env) == bir.eval_exp(s, env)


def test_simplify_preserves_matches_on_state():
    # the matches relation is unchanged by simplification, for path-satisfying
    # and path-violating interpretations alike
    a, b, v = sym("a", bir.Imm64), sym("b", bir.Imm64), sym("v", bir.Imm64)
    w = sym("w", bir.Imm64)
    msym = sym("s_MEM8", bir.Mem)
    path = binop("and",
                 binop("and",
                       binpred("ule", binop("plus", b, const(64, 8)), a),
                       binpred("ule", a, const(64, 0xFFFFFF))),
                 binpred("ule", b, const(64, 0xFFFFFF)))
    mem_exp = store(store(msym, a, v), binop("plus", a, const(64, 8)), w)
    st = SymbolicState(path=path,
                       env={X10: load(mem_exp, a, 64),
                            xvar(11): load(mem_exp, binop("plus", a, const(64, 4)), 32),
                            xvar(12): load(mem_exp, b, 64), MEM8: mem_exp}, at=3)
    st2 = symexec.simplify(st)
    # same base: the store at a+8 is skipped syntactically and the one at a read
    assert st2.env[X10] is v
    assert st2.env[xvar(11)] is bir.cast("low", 32, binop("lshr", v, const(64, 32)))
    assert st2.env[xvar(12)] is load(mem_exp, b, 64)  # other base: left as is
    rng = random.Random(13)
    for trial in range(60):
        if trial % 2 == 0:  # satisfy the path
            bv = rng.randrange(0, 0xFFFF)
            av = rng.randrange(bv + 8, 0xFFFFFF)
        else:  # violate it (almost surely)
            av, bv = rng.getrandbits(64), rng.getrandbits(64)
        H = {"a": av, "b": bv, "v": rng.getrandbits(64), "w": rng.getrandbits(64),
             "s_MEM8": {rng.getrandbits(20): rng.getrandbits(8) for _ in range(4)}}
        conc = {var: bir.eval_exp(e, {}, H) for var, e in st.env.items()}
        assert matches(H, st, conc, 3) == matches(H, st2, conc, 3)
        bad = dict(conc)
        bad[X10] = (bad[X10] + 1) & ((1 << 64) - 1)
        assert matches(H, st, bad, 3) == matches(H, st2, bad, 3)


# -- abbreviation -------------------------------------------------------------

def _grow(e, n):
    for k in range(n):
        e = binop("xor", binop("plus", e, const(64, k + 1)), e)
    return e


def test_abbreviate_and_expand_roundtrip(monkeypatch):
    monkeypatch.setattr(symexec, "ABBREV_THRESHOLD", 8)
    big = _grow(S0, 6)
    st = SymbolicState(path=bir.true_exp, env={X10: big}, at=0)
    gen = itertools.count()
    ab = abbreviate(st, gen)
    assert isinstance(ab.env[X10], bir.Sym)
    assert dict(ab.abbrevs)[ab.env[X10]] is big
    back = expand_abbrevs(ab)
    assert back.env[X10] is big and back.path is st.path


def test_abbreviate_lone_symbol_unchanged(monkeypatch):
    monkeypatch.setattr(symexec, "ABBREV_THRESHOLD", 0)
    st = SymbolicState(path=bir.true_exp, env={X10: S0}, at=0)
    ab = abbreviate(st, itertools.count())
    assert ab.env[X10] is S0 and ab.abbrevs == ()


def test_abbreviate_preserves_matches(monkeypatch):
    monkeypatch.setattr(symexec, "ABBREV_THRESHOLD", 4)
    big = _grow(S0, 5)
    st = SymbolicState(path=binpred("ult", S0, const(64, 100)),
                       env={X10: big}, at=7)
    ab = abbreviate(st, itertools.count())
    rng = random.Random(3)
    for _ in range(50):
        H = {"s0": rng.randrange(0, 200)}
        conc = {X10: bir.eval_exp(big, {}, H)}
        assert matches(H, st, conc, 7) == matches(H, ab, conc, 7)


def test_repeated_abbreviation_roundtrip(monkeypatch):
    monkeypatch.setattr(symexec, "ABBREV_THRESHOLD", 2)
    st = SymbolicState(path=bir.true_exp, env={X10: _grow(S0, 4)}, at=0)
    gen = itertools.count()
    for _ in range(3):
        st2 = abbreviate(st, gen)
        st = dataclasses.replace(st2, env={X10: _grow(st2.env[X10], 4)})
    out = expand_abbrevs(st)
    assert not bir.collect_syms(out.env[X10]).keys() - {"s0"}


# -- execute -------------------------------------------------------------------

def test_execute_incr_structure(solver):
    prog = incr_program()
    st = execute(prog, 0x10488, {0x1048C}, set(), binpred("eq", den(X10), PRE),
                 solver=solver)
    assert len(st.leaves) == 1
    leaf = st.leaves[0]
    assert leaf.at == 0x1048C
    assert leaf.env[X10] == binop("plus", sym("s_x10", bir.Imm64), const(64, 1))
    assert st.labels == {0x10488, 0x1048C}


def test_execute_straight_line(solver):
    rng = random.Random(8)
    instrs = [lifter.sample_instr("xori", rng) for _ in range(6)]
    prog = BirProgram([lifter.lift_instr(i, 0x9000 + 4 * k)
                       for k, i in enumerate(instrs)])
    st = execute(prog, 0x9000, {0x9000 + 24}, set(), bir.true_exp, solver=solver)
    assert len(st.leaves) == 1
    assert st.labels == {0x9000 + 4 * k for k in range(7)}


def test_execute_diamond_mutually_exclusive_paths(solver):
    z = BirVar("z", bir.Imm64)
    blocks = [
        BirBlock(0x100, "", (), CJmp(binpred("eq", den(z), const(64, 0)),
                                     0x104, 0x108)),
        BirBlock(0x104, "", (Assign(z, const(64, 1)),), Jmp(0x10C)),
        BirBlock(0x108, "", (Assign(z, const(64, 2)),), Jmp(0x10C)),
    ]
    prog = BirProgram(blocks)
    st = execute(prog, 0x100, {0x10C}, set(), bir.true_exp, solver=solver)
    assert len(st.leaves) == 2
    p0, p1 = (leaf.path for leaf in st.leaves)
    # complementary by construction: c and not c
    rng = random.Random(4)
    for _ in range(100):
        H = {"s_z": rng.getrandbits(64) if rng.random() < 0.5 else 0}
        assert (bir.eval_exp(p0, {}, H) == 1) != (bir.eval_exp(p1, {}, H) == 1)


def test_execute_forbidden_label(solver):
    # a forbidden label ends its path as an endpoint does: its block is not
    # stepped, so the leaf's x10 is still the value from before the addi
    prog = incr_program()
    st = execute(prog, 0x10488, {0x10490}, {0x10488}, bir.true_exp, solver=solver)
    (leaf,) = st.leaves
    assert leaf.at == 0x10488
    assert leaf.env[X10] is sym("s_x10", bir.Imm64)


def test_execute_budget_exhausted_on_loop(solver):
    _, prog, lm, rc = load_fixture("loopy")
    with pytest.raises(symexec.BudgetExhausted):
        execute(prog, rc.entry, rc.endpoints, set(), bir.true_exp,
                EngineConfig(unroll=0), solver)


def test_execute_step_budget(solver, monkeypatch):
    monkeypatch.setattr(symexec, "MAX_STEPS", 3)
    rng = random.Random(9)
    instrs = [lifter.sample_instr("addi", rng) for _ in range(6)]
    prog = BirProgram([lifter.lift_instr(i, 0xA000 + 4 * k)
                       for k, i in enumerate(instrs)])
    with pytest.raises(symexec.BudgetExhausted, match="step budget 3 exceeded"):
        execute(prog, 0xA000, {0xA000 + 24}, set(), bir.true_exp, solver=solver)


@pytest.mark.parametrize("kw", [{"unroll": -1}])
def test_engine_config_validates(kw):
    with pytest.raises(ValueError):
        EngineConfig(**kw)


def test_engine_config_fields_are_the_settable_ones():
    assert [f.name for f in dataclasses.fields(EngineConfig)] == ["unroll"]


def test_execute_deterministic(solver):
    _, prog, lm, rc = load_fixture("motor")
    bc = contracts.to_bir(rc, prog)
    a = contracts.execute(bc, solver=solver)
    b = contracts.execute(bc, solver=solver)
    assert symexec.structure_to_text(a) == symexec.structure_to_text(b)


def test_structure_json_dump(solver):
    prog = incr_program()
    st = execute(prog, 0x10488, {0x1048C}, set(), bir.true_exp, solver=solver)
    import json
    doc = json.loads(symexec.structure_to_json(st))
    assert doc["schema"] == "bircheck-structure/1"
    assert doc["leaves"][0]["at"] == "0x1048c"


def test_soundness_sampling_small():
    from conftest import soundness_sample
    for name in ("incr", "mod2", "swap"):
        soundness_sample(name, trials=40, seed=5)


def _random_loopfree_program(rng, n, base):
    """n supported instructions with forward-only branch targets."""
    kinds = [k for k in isa.ALL_KINDS
             if k not in ("jalr",) + isa.BRANCH_KINDS and k != "jal"]
    instrs = []
    for i in range(n):
        if i < n - 1 and rng.random() < 0.25:
            kind = rng.choice(isa.BRANCH_KINDS + ("jal",))
            j = rng.randrange(i + 1, n + 1)  # forward target, may be the end
            off = 4 * (j - i)
            if kind == "jal":
                instrs.append(isa.Instr("jal", rd=rng.choice((0, 5)), imm=off))
            else:
                instrs.append(isa.Instr(kind, rs1=rng.randrange(32),
                                        rs2=rng.randrange(32), imm=off))
        else:
            instrs.append(lifter.sample_instr(rng.choice(kinds), rng))
    return instrs


def test_execute_soundness_on_random_programs(solver):
    # random loop-free programs: every concrete run from a matched initial
    # state must end in a state matched by some leaf
    rng = random.Random(0xF00D)
    for trial in range(20):
        base = 0x40000
        n = rng.randrange(3, 10)
        instrs = _random_loopfree_program(rng, n, base)
        prog = BirProgram([lifter.lift_instr(ins, base + 4 * k)
                           for k, ins in enumerate(instrs)])
        end = base + 4 * n
        st = execute(prog, base, {end}, set(), bir.true_exp, solver=solver)
        assert all(leaf.at == end for leaf in st.leaves)
        for _ in range(15):
            m = lifter.random_machine_state(rng, base)
            env0 = lifter.machine_to_env(m)
            H = {}
            for var, s in st.initial.env.items():
                v = env0.get(var)
                H[s.name] = v if v is not None else 0
            envf, stop, _ = run_program(prog, env0, base, exits={end}, fuel=1000)
            assert stop == end
            hits = [leaf for leaf in st.leaves
                    if matches(H, leaf, envf, stop)]
            assert hits, (trial, [i.kind for i in instrs])


def _structure_or_error(run):
    try:
        return symexec.structure_to_text(run())
    except symexec.EngineError as e:
        return f"{type(e).__name__}: {e}"


def _memo_runs(solver):
    """Thunks executing every fixture and the seeded random programs."""
    from bircheck.corpus import fixture_config, fixture_names
    runs = []
    for name in fixture_names():
        sl, prog, _, rc = load_fixture(name)
        if rc is None:
            runs.append(lambda sl=sl, prog=prog: execute(
                prog, sl.entry, sl.end_addrs, set(), bir.true_exp, solver=solver))
        else:
            bc = contracts.to_bir(rc, prog)
            runs.append(lambda bc=bc, cfg=fixture_config(name):
                        contracts.execute(bc, cfg, solver))
    rng = random.Random(0xF00D)
    for _ in range(20):
        base, n = 0x40000, rng.randrange(3, 10)
        instrs = _random_loopfree_program(rng, n, base)
        prog = BirProgram([lifter.lift_instr(ins, base + 4 * k)
                           for k, ins in enumerate(instrs)])
        runs.append(lambda prog=prog, base=base, end=base + 4 * n: execute(
            prog, base, {end}, set(), bir.true_exp, solver=solver))
    return runs


def test_run_memo_leaves_structures_unchanged(solver, monkeypatch):
    runs = _memo_runs(solver)
    shared = [_structure_or_error(r) for r in runs]
    simplify = symexec.simplify
    monkeypatch.setattr(symexec, "simplify", lambda sbar, memo=None: simplify(sbar))
    assert [_structure_or_error(r) for r in runs] == shared
