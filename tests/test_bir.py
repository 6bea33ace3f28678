import random
import re

import pytest

from bircheck import bir
from bircheck.bir import (Assign, BirBlock, BirProgram, BirVar, CJmp, Jmp,
                          binop, binpred, cast, const, den, ite, load, mask,
                          store, sym)

from oracles import (IndirectTargetUnresolved, run_program, type_of,
                     validate_program)

X10 = BirVar("x10", bir.Imm64)
Z = BirVar("z", bir.Imm64)
M = BirVar("MEM8", bir.Mem)


def test_type_of_increment_expression():
    e = binop("plus", den(X10), const(64, 1))
    assert type_of(e) is bir.Imm64


def test_type_of_const1():
    assert type_of(const(1, 1)) is bir.Imm1


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


def test_memory_is_neither_compared_nor_chosen():
    # no producer builds either, and the bundled solver answers unknown to both
    m, n = den(M), store(den(M), const(64, 0), const(8, 1))
    for op in bir.PRED_OPS:
        with pytest.raises(bir.TypeMismatch, match="compares words"):
            binpred(op, m, n)
    with pytest.raises(bir.TypeMismatch, match="ite arms"):
        ite(const(1, 1), m, n)
    with pytest.raises(bir.TypeMismatch, match="ite arms"):
        ite(const(1, 1), m, const(64, 0))


def test_type_of_detects_inconsistent_variable_typing():
    other = BirVar("x10", bir.Imm32)
    e = binop("plus", den(X10), const(64, 1))
    with pytest.raises(bir.TypeMismatch):
        type_of(e, {"x10": bir.Imm32})
    ok = type_of(e, {"x10": bir.Imm64})
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
        type_of(e)
        v = bir.eval_exp(e, {a: rng.getrandbits(64)})
        assert 0 <= v <= mask(e.ty.width)


def _mini_env():
    return {X10: 5, M: {}}


def test_exec_block_increment():
    blk = BirBlock(0x10488, "00150513 (addi a0,a0,1)",
                   (Assign(X10, binop("plus", den(X10), const(64, 1))),),
                   Jmp(0x1048C))
    env, nxt = bir.exec_block(blk, _mini_env())
    assert env[X10] == 6 and nxt == 0x1048C


def test_exec_block_empty_jmp():
    blk = BirBlock(0x100, "", (), Jmp(0x200))
    env0 = _mini_env()
    env, nxt = bir.exec_block(blk, env0)
    assert env == env0 and nxt == 0x200


def test_exec_block_cjmp_truth_table():
    cond = binpred("eq", den(Z), const(64, 0))
    blk = BirBlock(0x100, "", (), CJmp(cond, 0xA, 0xB))
    for zv, want in ((0, 0xA), (7, 0xB)):
        _, nxt = bir.exec_block(blk, {Z: zv})
        assert nxt == want


def test_exec_block_computed_target():
    blk = BirBlock(0x100, "", (), Jmp(binop("and", den(Z), const(64, ~1))))
    _, nxt = bir.exec_block(blk, {Z: 0x10501})
    assert nxt == 0x10500


def test_run_program_and_unresolved_target():
    blk = BirBlock(0x100, "", (), Jmp(den(Z)))
    prog = BirProgram([blk])
    env, stop, steps = run_program(prog, {Z: 0x200}, 0x100, exits={0x200})
    assert stop == 0x200 and steps == 1
    with pytest.raises(IndirectTargetUnresolved):
        run_program(prog, {Z: 0x999}, 0x100, exits={0x200})


def test_validate_program_label_discipline():
    good = BirProgram([BirBlock(0x100, "", (), Jmp(0x104))])
    validate_program(good, exits={0x104})
    with pytest.raises(bir.BirError):
        validate_program(good, exits=set())


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
    # right-to-left pre-order: the order of declare-const lines in every dump
    a, b, c = (sym(n, bir.Imm64) for n in "abc")
    assert list(bir.collect_syms(binop("plus", binop("plus", a, b), c))) == ["c", "b", "a"]


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


# ---------------------------------------------------------------------------
# The walkers over `bir.fold` against recursive reference versions (the
# memoised recursive walkers they replaced), and at a depth no recursive
# walker survives.

def _ref_fold_order(e):
    """Distinct nodes in memoised recursive post-order."""
    out, memo = [], set()

    def go(e):
        if id(e) in memo:
            return
        memo.add(id(e))
        for k in _children(e):
            go(k)
        out.append(e)

    go(e)
    return out


def _ref_type_of(exp, var_types=None):
    seen = {} if var_types is None else dict(var_types)
    memo = set()

    def walk(e):
        if id(e) in memo:
            return
        memo.add(id(e))
        if isinstance(e, bir.Den):
            prior = seen.get(e.var.name)
            if prior is not None and prior is not e.var.ty:
                raise bir.TypeMismatch(f"variable {e.var.name} used at {e.var.ty} and {prior}")
            seen[e.var.name] = e.var.ty
        for k in _children(e):
            walk(k)

    walk(exp)
    return exp.ty


def _ref_eval(exp, env, interp=None):
    memo = {}

    def ev(e):
        if id(e) not in memo:
            memo[id(e)] = _ev(e)
        return memo[id(e)]

    def _ev(e):
        if isinstance(e, bir.Const):
            return e.val
        if isinstance(e, bir.Den):
            return env[e.var]
        if isinstance(e, bir.Sym):
            return interp[e.name]
        if isinstance(e, bir.UnOp):
            w = e.ty.width
            return ev(e.a) ^ mask(w) if e.op == "not" else (-ev(e.a)) & mask(w)
        if isinstance(e, bir.BinOp):
            return bir._binop_val(e.op, ev(e.a), ev(e.b), e.ty.width)
        if isinstance(e, bir.BinPred):
            a, b = ev(e.a), ev(e.b)
            w = e.a.ty.width
            return int({"eq": a == b, "ne": a != b, "ult": a < b, "ule": a <= b,
                        "slt": bir.to_signed(a, w) < bir.to_signed(b, w)}[e.op])
        if isinstance(e, bir.Ite):
            return ev(e.then) if ev(e.cond) == 1 else ev(e.els)
        if isinstance(e, bir.Cast):
            a = ev(e.a)
            w0, w1 = e.a.ty.width, e.ty.width
            if e.kind == "low":
                return a & mask(w1)
            return a if e.kind == "zext" else bir.to_signed(a, w0) & mask(w1)
        if isinstance(e, bir.Load):
            return bir.load_bytes(ev(e.mem), ev(e.addr), e.width // 8)
        m = dict(ev(e.mem))
        bir.store_bytes(m, ev(e.addr), ev(e.value), e.value.ty.width // 8)
        return m

    return ev(exp)


def _ref_subst(exp, var_map=None, sym_map=None):
    memo = {}

    def go(e):
        if id(e) not in memo:
            memo[id(e)] = _go(e)
        return memo[id(e)]

    def _go(e):
        kids = _children(e)
        if kids:
            new = [go(k) for k in kids]
            return e if all(a is b for a, b in zip(new, kids)) else e.with_kids(*new)
        if isinstance(e, bir.Den) and var_map and e.var in var_map:
            return var_map[e.var]
        if isinstance(e, bir.Sym) and sym_map and e.name in sym_map:
            return sym_map[e.name]
        return e

    return go(exp)


def _ref_print(e):
    memo = {}

    def p(e):
        if id(e) not in memo:
            memo[id(e)] = _p(e)
        return memo[id(e)]

    def _p(e):
        if isinstance(e, bir.Const):
            return f"(const{e.ty.width} 0x{e.val:x})"
        if isinstance(e, bir.Den):
            return f"(den {e.var.name})"
        if isinstance(e, bir.Sym):
            return f"(sym {e.name} {e.ty})"
        if isinstance(e, bir.UnOp):
            return f"({e.op} {p(e.a)})"
        if isinstance(e, bir.BinOp):
            return f"({bir._BINOP_SYM[e.op]} {p(e.a)} {p(e.b)})"
        if isinstance(e, bir.BinPred):
            return f"({bir._PRED_SYM[e.op]} {p(e.a)} {p(e.b)})"
        if isinstance(e, bir.Ite):
            return f"(ite {p(e.cond)} {p(e.then)} {p(e.els)})"
        if isinstance(e, bir.Cast):
            return f"({e.kind} {e.ty.width} {p(e.a)})"
        if isinstance(e, bir.Load):
            return f"(load {p(e.mem)} {p(e.addr)} {e.width})"
        return f"(store {p(e.mem)} {p(e.addr)} {p(e.value)})"

    return p(e)


def _ref_simplify(e, passes=3):
    """The simplifier's rules driven by a memoised recursive walk, repeated
    until nothing changes (at most `passes` times)."""
    from bircheck.symexec import _rule

    def walk(e, memo):
        if id(e) not in memo:
            kids = [walk(k, memo) for k in _children(e)]
            memo[id(e)] = _rule(e, kids)
        return memo[id(e)]

    for _ in range(passes):
        out = walk(e, {})
        if out is e:
            break
        e = out
    return e


def _ref_encode(obl):
    """`encode` with its sharing count and rendering as memoised recursion
    over the per-node renderer."""
    from bircheck.smt import backend
    asserted = backend._terms_of(obl)
    refs, rendered, emit = {}, {}, []

    def count(e):
        refs[id(e)] = refs.get(id(e), 0) + 1
        if refs[id(e)] == 1:
            for k in _children(e):
                count(k)

    def render(e):
        if id(e) not in rendered:
            text = backend._render(e, [render(k) for k in _children(e)])
            if refs[id(e)] > 1 and not isinstance(e, (bir.Const, bir.Sym)):
                name = f".t{sum(l.startswith('(define-fun .t') for l in emit)}"
                emit.append(f"(define-fun {name} () {backend._sort_of(e.ty)} {text})")
                text = name
            rendered[id(e)] = text
        return rendered[id(e)]

    for t in asserted:
        count(t)
    lines = ["(set-logic QF_ABV)"]
    lines += [f"(declare-const {s.name} {backend._sort_of(s.ty)})"
              for s in backend._declared_syms(asserted).values()]
    for t in asserted:
        emit.append(f"(assert (= {render(t)} #b1))")
    return "\n".join(lines + emit + ["(check-sat)", "(get-model)"]) + "\n"


def test_fold_visits_distinct_nodes_children_first_left_to_right():
    for e in _random_traversal_inputs(200, 34):
        seen = []
        bir.fold(e, lambda n, kv: seen.append(n))
        assert seen == _ref_fold_order(e)
        assert bir.fold(e, lambda n, kv: 1 + sum(kv)) == bir.node_count(e)


def test_fold_shares_a_memo_across_roots():
    x = den(X10)
    e1 = binop("plus", x, const(64, 1))
    e2 = binop("xor", e1, x)
    seen, memo = [], {}
    bir.fold(e1, lambda n, kv: seen.append(n), memo)
    bir.fold(e2, lambda n, kv: seen.append(n), memo)
    assert seen == [x, const(64, 1), e1, e2]


def test_walkers_match_recursive_references():
    a, b = BirVar("a", bir.Imm64), BirVar("b", bir.Imm32)
    rng = random.Random(35)
    for e in _random_traversal_inputs(300, 36):
        assert bir.print_exp(e) == _ref_print(e)
        assert type_of(e) is _ref_type_of(e)
        var_map = {a: sym("ra", bir.Imm64), M: store(den(M), den(a), const(8, 1))}
        sym_map = {"sa": binop("plus", den(a), const(64, 3))}
        assert bir.subst(e, var_map, sym_map) is _ref_subst(e, var_map, sym_map)
        env = {a: rng.getrandbits(64), b: rng.getrandbits(32),
               M: {rng.getrandbits(64): rng.getrandbits(8) for _ in range(3)}}
        interp = {"sa": rng.getrandbits(64)}
        assert bir.eval_exp(e, env, interp) == _ref_eval(e, env, interp)
        from bircheck.symexec import simplify_exp
        assert simplify_exp(e) is _ref_simplify(e)


def test_one_simplifier_pass_reaches_the_fixed_point():
    from bircheck.symexec import simplify_exp
    for e in _random_traversal_inputs(300, 38):
        o = simplify_exp(e)
        assert simplify_exp(o) is o


def test_type_of_reports_the_same_first_clash_as_the_reference():
    x32 = BirVar("x10", bir.Imm32)
    e = binop("plus", cast("zext", 64, den(x32)), den(X10))
    with pytest.raises(bir.TypeMismatch) as got:
        type_of(e)
    with pytest.raises(bir.TypeMismatch) as want:
        _ref_type_of(e)
    assert str(got.value) == str(want.value)


def test_encode_matches_recursive_reference():
    from bircheck.smt import Obligation, encode
    a, b = BirVar("a", bir.Imm64), BirVar("b", bir.Imm32)
    to_syms = {a: sym("s_a", bir.Imm64), b: sym("s_b", bir.Imm32),
               M: sym("s_M", bir.Mem)}
    exps = [bir.subst(e, var_map=to_syms) for e in _random_traversal_inputs(120, 37)]
    for i in range(0, len(exps) - 3, 4):
        e1, e2, e3, e4 = exps[i:i + 4]
        ab0 = sym("ab0", bir.Imm64)
        defs = ((ab0, binop("plus", e1, e2)),)
        hyp = binpred("ult", binop("xor", ab0, e1), e3)
        goal = binpred("eq", binop("plus", e4, e1), ab0)
        for kind in ("feasibility", "entailment"):
            obl = Obligation(kind, (hyp,), goal, defs=defs)
            assert encode(obl) == _ref_encode(obl)


def test_encode_declares_exactly_the_free_symbols_of_the_closed_terms():
    from bircheck.smt import Obligation, encode
    a, b = BirVar("a", bir.Imm64), BirVar("b", bir.Imm32)
    to_syms = {a: sym("s_a", bir.Imm64), b: sym("s_b", bir.Imm32),
               M: sym("s_M", bir.Mem)}
    exps = [bir.subst(e, var_map=to_syms) for e in _random_traversal_inputs(120, 39)]
    ab0, ab1 = sym("ab0", bir.Imm64), sym("ab1", bir.Imm64)
    for i in range(0, len(exps) - 3, 4):
        e1, e2, e3, e4 = exps[i:i + 4]
        defs = ((ab0, binop("plus", e1, e2)), (ab1, binop("xor", ab0, e3)))
        for reached, goal in ((True, binpred("eq", e4, ab1)),
                              (False, binpred("eq", e4, e1))):
            want = {}
            for e in (e4, e1, e2, e3) if reached else (e4, e1):
                bir.collect_syms(e, want)
            text = encode(Obligation("entailment", (), goal, defs=defs))
            declared = re.findall(r"\(declare-const (\S+) ", text)
            assert sorted(declared) == sorted(want)
            assert not re.search(r"\bab\d", text)


DEPTH = 5000


def _deep_chain(depth=DEPTH):
    """((((x ^ y) + y) ^ y) + y)... over 8-bit leaves, `depth` operators
    deep; built bottom-up, so building needs no recursion."""
    x, y = den(BirVar("x", bir.Imm8)), sym("y", bir.Imm8)
    e = x
    for k in range(depth):
        e = binop("xor" if k % 2 == 0 else "plus", e, y)
    return e


def _chain_value(xv, yv, depth=DEPTH):
    v = xv
    for k in range(depth):
        v = v ^ yv if k % 2 == 0 else (v + yv) & 0xFF
    return v


def test_walkers_handle_depth_5000_at_the_default_recursion_limit():
    import sys
    from bircheck.symexec import simplify_exp
    assert sys.getrecursionlimit() <= 1000 < DEPTH
    e = _deep_chain()
    xvar = BirVar("x", bir.Imm8)
    assert bir.node_count(e) == 2 * DEPTH + 1
    assert type_of(e) is bir.Imm8
    seen = {}
    bir._collect_vars(e, seen)
    assert list(seen) == ["x"]
    text = bir.print_exp(e)
    assert text.startswith("(+ (^ " * 3) and text.count("(sym y imm8)") == DEPTH
    assert bir.eval_exp(e, {xvar: 0x5A}, {"y": 0x3C}) == _chain_value(0x5A, 0x3C)
    s = bir.subst(e, var_map={xvar: sym("x0", bir.Imm8)})
    assert bir.node_count(s) == bir.node_count(e)
    assert bir.subst(s, sym_map={"x0": den(xvar)}) is e
    # every "+ 0" disappears: the simplified chain is the xor/plus chain
    padded = den(xvar)
    for k in range(DEPTH):
        op = "xor" if k % 2 == 0 else "plus"
        padded = binop("plus", binop(op, padded, sym("y", bir.Imm8)), const(8, 0))
    assert simplify_exp(padded) is e
