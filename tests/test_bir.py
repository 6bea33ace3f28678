import random

import pytest

from bircheck import bir
from bircheck.bir import (Assign, Assert, BirBlock, BirProgram, BirVar, CJmp,
                          Halt, Jmp, binop, binpred, cast, const, den, ite,
                          load, mask, store, sym)

X10 = BirVar("x10", bir.Imm64)
Z = BirVar("z", bir.Imm64)
M = BirVar("MEM8", bir.Mem)


def test_type_of_increment_expression():
    e = binop("plus", den(X10), const(64, 1))
    assert bir.type_of(e) is bir.Imm64


def test_type_of_const1():
    assert bir.type_of(const(1, 1)) is bir.Imm1


def test_width_clash_raises():
    with pytest.raises(bir.TypeMismatch):
        binop("plus", const(32, 1), const(64, 1))
    with pytest.raises(bir.TypeMismatch):
        ite(const(1, 1), const(8, 0), const(16, 0))
    with pytest.raises(bir.TypeMismatch):
        binpred("slt", den(M), den(M))
    with pytest.raises(bir.TypeMismatch):
        cast("low", 64, const(32, 0))
    with pytest.raises(bir.TypeMismatch):
        load(den(X10), const(64, 0), 64)


def test_type_of_detects_inconsistent_variable_typing():
    other = BirVar("x10", bir.Imm32)
    e = binop("plus", den(X10), const(64, 1))
    with pytest.raises(bir.TypeMismatch):
        bir.type_of(e, {"x10": bir.Imm32})
    ok = bir.type_of(e, {"x10": bir.Imm64})
    assert ok is bir.Imm64
    assert other.ty is bir.Imm32  # building the clashing var itself is fine


def test_interning_gives_identity():
    a = binop("plus", den(X10), const(64, 1))
    b = binop("plus", den(X10), const(64, 1))
    assert a is b


def test_eval_increment():
    e = binop("plus", den(X10), const(64, 1))
    assert bir.eval_exp(e, {X10: 41}) == 42


def test_eval_xor_self_is_zero():
    for c in (0, 1, 0xDEADBEEF, mask(64)):
        e = binop("xor", const(64, c), const(64, c))
        assert bir.eval_exp(e, {}) == 0


def test_eval_unbound_var():
    with pytest.raises(bir.UnboundVar):
        bir.eval_exp(den(Z), {})
    with pytest.raises(bir.UnboundSymbol):
        bir.eval_exp(sym("s", bir.Imm64), {})


def test_eval_store_load_roundtrip_random():
    rng = random.Random(17)
    for _ in range(200):
        w = rng.choice([8, 16, 32, 64])
        a = rng.getrandbits(64)
        v = rng.getrandbits(w)
        memv = {rng.getrandbits(64): rng.getrandbits(8) for _ in range(4)}
        st = store(den(M), const(64, a), const(w, v))
        out = bir.eval_exp(load(st, const(64, a), w), {M: memv})
        assert out == v


def test_eval_disjoint_store_preserves_load():
    rng = random.Random(18)
    for _ in range(200):
        w = rng.choice([8, 16, 32, 64])
        nbytes = w // 8
        a = rng.getrandbits(48)
        # pick b provably disjoint from [a, a+nbytes)
        delta = rng.randrange(nbytes, 4096)
        b = a + delta if rng.random() < 0.5 else a - delta - nbytes
        if b < 0:
            b += 1 << 64
        memv = {(b + k) & mask(64): rng.getrandbits(8) for k in range(nbytes)}
        before = bir.eval_exp(load(den(M), const(64, b), w), {M: memv})
        st = store(den(M), const(64, a), const(w, rng.getrandbits(w)))
        after = bir.eval_exp(load(st, const(64, b), w), {M: memv})
        assert after == before


# a deliberately independent recursive evaluator used as the oracle for
# compositionality: same signatures, separate code path
def _oracle(e, env):
    if isinstance(e, bir.Const):
        return e.val
    if isinstance(e, bir.Den):
        return env[e.var]
    if isinstance(e, bir.UnOp):
        w = e.ty.width
        v = _oracle(e.a, env)
        return (v ^ mask(w)) if e.op == "not" else ((-v) % (1 << w))
    if isinstance(e, bir.BinOp):
        w = e.ty.width
        a, b = _oracle(e.a, env), _oracle(e.b, env)
        m = 1 << w
        if e.op == "plus":
            return (a + b) % m
        if e.op == "minus":
            return (a - b) % m
        if e.op == "mult":
            return (a * b) % m
        if e.op == "udiv":
            return (m - 1) if b == 0 else a // b
        if e.op == "and":
            return a & b
        if e.op == "or":
            return a | b
        if e.op == "xor":
            return a ^ b
        if e.op == "shl":
            return (a << b) % m if b < w else 0
        if e.op == "lshr":
            return a >> b if b < w else 0
        sa = a - m if a >= m // 2 else a
        return (sa >> min(b, w - 1)) % m
    if isinstance(e, bir.BinPred):
        w = e.a.ty.width
        a, b = _oracle(e.a, env), _oracle(e.b, env)
        m = 1 << w
        sa = a - m if a >= m // 2 else a
        sb = b - m if b >= m // 2 else b
        return {"eq": a == b, "ne": a != b, "ult": a < b, "ule": a <= b,
                "slt": sa < sb}[e.op] and 1 or 0
    if isinstance(e, bir.Ite):
        return _oracle(e.then, env) if _oracle(e.cond, env) else _oracle(e.els, env)
    if isinstance(e, bir.Cast):
        v = _oracle(e.a, env)
        w0, w1 = e.a.ty.width, e.ty.width
        if e.kind == "low":
            return v % (1 << w1)
        if e.kind == "zext":
            return v
        s = v - (1 << w0) if v >= (1 << (w0 - 1)) else v
        return s % (1 << w1)
    raise AssertionError(e)


def random_exp(rng, depth, width, vars_):
    if depth == 0 or rng.random() < 0.2:
        if vars_ and rng.random() < 0.5:
            cands = [v for v in vars_ if v.ty.width == width]
            if cands:
                return den(rng.choice(cands))
        return const(width, rng.getrandbits(width))
    pick = rng.random()
    if pick < 0.55:
        op = rng.choice(bir.BIN_OPS)
        return binop(op, random_exp(rng, depth - 1, width, vars_),
                     random_exp(rng, depth - 1, width, vars_))
    if pick < 0.65:
        return bir.unop(rng.choice(bir.UN_OPS), random_exp(rng, depth - 1, width, vars_))
    if pick < 0.75:
        c = binpred(rng.choice(bir.PRED_OPS),
                    random_exp(rng, depth - 1, width, vars_),
                    random_exp(rng, depth - 1, width, vars_))
        return ite(c, random_exp(rng, depth - 1, width, vars_),
                   random_exp(rng, depth - 1, width, vars_))
    if pick < 0.9:
        w0 = rng.choice([w for w in (8, 16, 32, 64) if w <= width])
        inner = random_exp(rng, depth - 1, w0, vars_)
        kind = rng.choice(["zext", "sext"])
        return cast(kind, width, inner)
    w0 = rng.choice([w for w in (8, 16, 32, 64) if w >= width])
    return cast("low", width, random_exp(rng, depth - 1, w0, vars_))


def test_eval_matches_independent_oracle():
    rng = random.Random(20)
    a = BirVar("a", bir.Imm64)
    b = BirVar("b", bir.Imm32)
    for _ in range(500):
        width = rng.choice([8, 16, 32, 64])
        e = random_exp(rng, rng.randrange(1, 5), width, [a, b])
        env = {a: rng.getrandbits(64), b: rng.getrandbits(32)}
        assert bir.eval_exp(e, env) == _oracle(e, env)


def test_progress_well_typed_eval_never_type_errors():
    rng = random.Random(23)
    a = BirVar("a", bir.Imm64)
    for _ in range(300):
        e = random_exp(rng, 4, rng.choice([8, 32, 64]), [a])
        bir.type_of(e)
        v = bir.eval_exp(e, {a: rng.getrandbits(64)})
        assert 0 <= v <= mask(e.ty.width)


def _mini_env():
    return {X10: 5, M: {}}


def test_exec_block_increment():
    blk = BirBlock(0x10488, "00150513 (addi a0,a0,1)",
                   (Assign(X10, binop("plus", den(X10), const(64, 1))),),
                   Jmp(0x1048C))
    prog = BirProgram([blk])
    env, nxt = bir.exec_block(prog, blk, _mini_env())
    assert env[X10] == 6 and nxt == 0x1048C


def test_exec_block_empty_jmp():
    blk = BirBlock(0x100, "", (), Jmp(0x200))
    prog = BirProgram([blk])
    env0 = _mini_env()
    env, nxt = bir.exec_block(prog, blk, env0)
    assert env == env0 and nxt == 0x200


def test_exec_block_cjmp_truth_table():
    cond = binpred("eq", den(Z), const(64, 0))
    blk = BirBlock(0x100, "", (), CJmp(cond, 0xA, 0xB))
    prog = BirProgram([blk])
    for zv, want in ((0, 0xA), (7, 0xB)):
        _, nxt = bir.exec_block(prog, blk, {Z: zv})
        assert nxt == want


def test_exec_block_assert():
    blk = BirBlock(0x100, "", (Assert(binpred("eq", den(Z), const(64, 1))),),
                   Jmp(0x104))
    prog = BirProgram([blk])
    bir.exec_block(prog, blk, {Z: 1})
    with pytest.raises(bir.AssertFailed):
        bir.exec_block(prog, blk, {Z: 2})


def test_exec_block_computed_target_and_halt():
    blk = BirBlock(0x100, "", (), Jmp(binop("and", den(Z), const(64, ~1))))
    prog = BirProgram([blk])
    _, nxt = bir.exec_block(prog, blk, {Z: 0x10501})
    assert nxt == 0x10500
    blk2 = BirBlock(0x200, "", (), Halt())
    prog2 = BirProgram([blk2])
    _, nxt2 = bir.exec_block(prog2, blk2, {})
    assert nxt2 is bir.HALTED


def test_run_program_and_unresolved_target():
    blk = BirBlock(0x100, "", (), Jmp(den(Z)))
    prog = BirProgram([blk])
    env, stop, steps = bir.run_program(prog, {Z: 0x200}, 0x100, exits={0x200})
    assert stop == 0x200 and steps == 1
    with pytest.raises(bir.IndirectTargetUnresolved):
        bir.run_program(prog, {Z: 0x999}, 0x100, exits={0x200})


def test_validate_program_label_discipline():
    good = BirProgram([BirBlock(0x100, "", (), Jmp(0x104))])
    bir.validate_program(good, exits={0x104})
    with pytest.raises(bir.BirError):
        bir.validate_program(good, exits=set())


def _children(e):
    """Children in field order, spelled out per node type (independent of
    the `kids` the nodes carry)."""
    if isinstance(e, (bir.UnOp, bir.Cast)):
        return [e.a]
    if isinstance(e, (bir.BinOp, bir.BinPred)):
        return [e.a, e.b]
    if isinstance(e, bir.Ite):
        return [e.cond, e.then, e.els]
    if isinstance(e, bir.Load):
        return [e.mem, e.addr]
    if isinstance(e, bir.Store):
        return [e.mem, e.addr, e.value]
    return []


def _random_traversal_inputs(n, seed):
    """Random expressions over Den and Sym leaves, some inside memory terms."""
    rng = random.Random(seed)
    a, b = BirVar("a", bir.Imm64), BirVar("b", bir.Imm32)
    sa = {a: sym("sa", bir.Imm64)}
    for _ in range(n):
        e = random_exp(rng, rng.randrange(1, 6), 64, [a, b])
        if rng.random() < 0.5:
            e = bir.subst(e, var_map=sa)
        if rng.random() < 0.3:
            m = store(den(M), e, random_exp(rng, 3, 32, [a, b]))
            e = binop("plus", load(m, den(a), 64), e)
        yield e


def test_node_count_counts_tree_occurrences():
    e = binop("plus", den(X10), den(X10))
    assert bir.node_count(e) == 3
    shared = binop("xor", e, e)
    assert bir.node_count(shared) == 7  # shared DAG node counted per occurrence

    def tree_count(e):
        return 1 + sum(tree_count(k) for k in _children(e))

    for e in _random_traversal_inputs(200, 31):
        assert bir.node_count(e) == tree_count(e)


def test_leaf_collectors_match_reference_order():
    def ref_vars(e, seen, memo):  # recursive pre-order
        if id(e) in memo:
            return
        memo.add(id(e))
        if isinstance(e, bir.Den):
            seen.setdefault(e.var.name, e.var)
        for k in _children(e):
            ref_vars(k, seen, memo)

    def ref_syms(e):  # explicit stack, children pushed in field order
        out, memo, stack = {}, set(), [e]
        while stack:
            e = stack.pop()
            if id(e) not in memo:
                memo.add(id(e))
                if isinstance(e, bir.Sym):
                    out.setdefault(e.name, e)
                stack += _children(e)
        return out

    for e in _random_traversal_inputs(200, 32):
        want = {}
        ref_vars(e, want, set())
        got = {}
        bir._collect_vars(e, got)
        assert list(got.items()) == list(want.items())
        assert list(bir.collect_syms(e).items()) == list(ref_syms(e).items())


def test_subst_missing_every_leaf_returns_same_node():
    unused = BirVar("unused", bir.Imm64)
    for e in _random_traversal_inputs(100, 33):
        assert bir.subst(e, var_map={unused: const(64, 1)},
                         sym_map={"unused": const(64, 2)}) is e


def test_print_program_matches_grammar():
    blk = BirBlock(0x10488, "00150513 (addi a0,a0,1)",
                   (Assign(X10, binop("plus", den(X10), const(64, 1))),),
                   Jmp(0x1048C))
    text = bir.print_program(BirProgram([blk]))
    assert "(block 0x10488" in text
    assert "(assign x10 (+ (den x10) (const64 0x1)))" in text
    assert "(jmp 0x1048c)" in text
