"""Forward symbolic execution of BIR programs.

A symbolic state is a path condition plus a mapping from program variables to
symbolic expressions over symbols; an interpretation H maps symbols to values
and matches a symbolic state against a concrete state when the path condition
evaluates to true and every variable agrees.  Executing a program produces a
symbolic structure: the judgment that every concrete execution starting from
a matched initial state and staying within the visited label set ends in a
state matched by one of the leaves under the same interpretation.  Every path
ends at a leaf: at an endpoint, at a forbidden label, or where no block is;
what a leaf means is for the caller (`contracts.verify`) to decide.

The engine applies, under a worklist driver, the rule repertoire, each rule
a function over states: block stepping (blocks are assignments ending in a
jump or a conditional jump, as the lifter builds them) with case analysis on
conditional and computed jumps, solver-backed pruning of infeasible states,
one bottom-up simplification pass, and abbreviation of word expressions and
the path condition above a node-count threshold (memory is never
abbreviated).  The solver is asked only what decides control flow: which
states are feasible and where a computed jump may go.  A conditional split
checks its two children itself; each target of a computed jump comes with
the model that found it, so it needs no second check.  Simplification is a
pure rewrite of a node, never reading abbreviation definitions, so one run
shares one memo of its results; it resolves a load over a store chain
syntactically, where the two addresses are the same base plus constant
offsets, and leaves every other aliasing question to the solver inside the
obligation that needs it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

from . import bir
from .bir import (BinOp, BinPred, Cast, Const, Ite, Load, Store, Sym,
                  UnOp, binop, binpred, cast, const, ite, load, store, sym,
                  unop)
from .smt import Obligation, SolverConfig, check, check_many


class EngineError(Exception):
    pass


class BudgetExhausted(EngineError):
    pass


class IndirectTargetUnbounded(EngineError):
    pass


@dataclass(frozen=True)
class SymbolicState:
    path: object                 # Imm1 SymExpr
    env: dict                    # BirVar -> SymExpr
    at: int
    abbrevs: tuple = ()          # ((Sym, SymExpr), ...) in introduction order


@dataclass(frozen=True)
class SymbolicStructure:
    initial: SymbolicState
    labels: frozenset
    leaves: tuple


@dataclass
class EngineConfig:
    unroll: int = 0

    def __post_init__(self):
        if self.unroll < 0:
            raise ValueError("unroll bound must be >= 0")


# Budgets of one run, read where they are used at each call, so a test
# changes one by monkeypatching the module attribute.
MAX_STEPS = 20_000         # blocks stepped before execution gives up
MAX_STATES = 4_096         # frontier plus leaves before execution gives up
ABBREV_THRESHOLD = 64      # node count above which a word or path is abbreviated
MAX_INDIRECT_TARGETS = 16  # feasible targets of one computed jump


# ---------------------------------------------------------------------------
# Matching

def matches(H, sbar: SymbolicState, concrete_env, at_label) -> bool:
    """H(sbar) = s: path condition true, every mapped variable equal, and the
    control location equal."""
    Hx = dict(H)
    for a, d in sbar.abbrevs:  # in order: a definition uses the ones before it
        Hx[a.name] = bir.eval_exp(d, {}, Hx)
    if sbar.at != at_label:
        return False
    if bir.eval_exp(sbar.path, {}, Hx) != 1:
        return False
    for var, e in sbar.env.items():
        want = concrete_env.get(var)
        if want is None:
            continue
        got = bir.eval_exp(e, {}, Hx)
        if var.ty is bir.Mem:
            if not bir.mem_equal(got, want):
                return False
        elif got != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Initial states

def init_state(program, entry, precond, extra_vars=()) -> SymbolicState:
    """Map every program variable (and every one of `extra_vars`) to the
    symbol s_<name> and install the precondition as the path condition.  A
    variable of the precondition outside both stays a program variable,
    which the solver encoding refuses (`UnsupportedTerm`).  Variables are
    unique by name, so the s_<name> symbols are."""
    if precond.ty is not bir.Imm1:
        raise bir.TypeMismatch("precondition must be imm1")
    variables = list(program.variables())
    names = {v.name for v in variables}
    for v in extra_vars:
        if v.name not in names:
            variables.append(v)
            names.add(v.name)
    env = {v: sym(f"s_{v.name}", v.ty) for v in variables}
    path = bir.subst(precond, var_map={v: env[v] for v in env})
    return SymbolicState(path=path, env=env, at=entry)


# ---------------------------------------------------------------------------
# Expression simplification

def _split_base(e):
    """Decompose into (base expression or None, constant offset).  A None base
    means the whole expression is the constant."""
    off = 0
    w = e.ty.width
    while isinstance(e, BinOp) and e.op == "plus" and isinstance(e.b, Const):
        off += e.b.val
        e = e.a
    if isinstance(e, Const):
        return None, (e.val + off) & bir.mask(w)
    return e, off & bir.mask(w)


# The rewrite rules, applied in one bottom-up pass (`bir.fold`); each rule
# returns a node the rules leave alone, so one pass reaches the fixed point.
# A load skips or reads a store only when both addresses are the same base
# plus constant offsets (load-over-store is syntactic).  The rules read
# nothing but the node, so a node's result is the same in every state.

def _rule(e, kv):
    """One bottom-up rewrite of `e` over its simplified children `kv`."""
    if not kv:
        return e
    if isinstance(e, UnOp):
        return _rule_unop(e.op, *kv)
    if isinstance(e, BinOp):
        return _rule_binop(e.op, *kv)
    if isinstance(e, BinPred):
        return _rule_pred(e.op, *kv)
    if isinstance(e, Ite):
        return _rule_ite(*kv)
    if isinstance(e, Cast):
        return _rule_cast(e.kind, e.ty.width, *kv)
    if isinstance(e, Load):
        return _rule_load(*kv, e.width)
    return _rule_store(*kv)


def _rule_unop(op, a):
    if isinstance(a, Const):
        return const(a.ty.width, bir.eval_exp(unop(op, a), {}))
    if isinstance(a, UnOp) and a.op == op:
        return a.a
    return unop(op, a)


def _rule_binop(op, a, b):
    w = a.ty.width
    if isinstance(a, Const) and isinstance(b, Const):
        return const(w, bir._binop_val(op, a.val, b.val, w))
    zero = const(w, 0)
    ones = const(w, bir.mask(w))
    if op in ("plus", "mult", "and", "or", "xor") and isinstance(a, Const):
        a, b = b, a  # constants to the right
    if op == "plus":
        if b is zero:
            return a
        if isinstance(b, Const) and isinstance(a, BinOp) and a.op == "plus" and \
                isinstance(a.b, Const):
            return _rule_binop("plus", a.a, const(w, a.b.val + b.val))
    elif op == "minus":
        if b is zero:
            return a
        if a is b:
            return zero
        if isinstance(b, Const):
            return _rule_binop("plus", a, const(w, -b.val))
    elif op == "xor":
        if a is b:
            return zero
        if b is zero:
            return a
    elif op == "and":
        if a is b or b is ones:
            return a
        if b is zero:
            return zero
    elif op == "or":
        if a is b or b is zero:
            return a
        if b is ones:
            return ones
    elif op == "mult":
        if b is zero:
            return zero
        if isinstance(b, Const) and b.val == 1:
            return a
    elif op == "udiv":
        if isinstance(b, Const) and b.val == 1:
            return a
    elif op in ("shl", "lshr", "ashr"):
        if b is zero:
            return a
        if isinstance(b, Const) and b.val >= w and op in ("shl", "lshr"):
            return zero
    return binop(op, a, b)


def _rule_pred(op, a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return const(1, bir.eval_exp(binpred(op, a, b), {}))
    if a is b:
        return bir.true_exp if op in ("eq", "ule") else bir.false_exp
    if op in ("eq", "ne"):
        ba, oa = _split_base(a)
        bb, ob = _split_base(b)
        if ba is bb and ba is not None:
            same = oa == ob
            return bir.true_exp if same == (op == "eq") else bir.false_exp
    return binpred(op, a, b)


def _rule_ite(c, t, f):
    if isinstance(c, Const):
        return t if c.val == 1 else f
    if t is f:
        return t
    return ite(c, t, f)


def _rule_cast(kind, width, a):
    if a.ty.width == width:
        return a
    if isinstance(a, Const):
        return const(width, bir.eval_exp(cast(kind, width, a), {}))
    if isinstance(a, Cast):
        if kind == "low" and a.kind == "low":
            return _rule_cast("low", width, a.a)
        if kind == a.kind and kind in ("zext", "sext"):
            return _rule_cast(kind, width, a.a)
        if kind == "low" and a.kind in ("zext", "sext") and width <= a.a.ty.width:
            return _rule_cast("low", width, a.a)
    return cast(kind, width, a)


def _rule_load(mem, addr, width):
    nbytes = width // 8
    bb, ob = _split_base(addr)
    while isinstance(mem, Store):
        sa, sv = mem.addr, mem.value
        sbytes = sv.ty.width // 8
        ba, oa = _split_base(sa)
        if ba is not bb:
            break  # aliasing not decided syntactically: left to the solver
        delta = (ob - oa) & bir.mask(64)
        if delta == 0 and sbytes == nbytes:
            return sv
        if delta < sbytes and delta + nbytes <= sbytes:  # contained
            v = sv
            if delta:
                v = _rule_binop("lshr", v, const(sv.ty.width, 8 * delta))
            return _rule_cast("low", width, v)
        if delta < sbytes or ((oa - ob) & bir.mask(64)) < nbytes:
            break  # partial overlap
        mem = mem.mem  # disjoint: skip the store
    return load(mem, addr, width)


def _rule_store(mem, addr, value):
    if isinstance(mem, Store) and mem.addr is addr and \
            mem.value.ty.width == value.ty.width:
        return store(mem.mem, addr, value)
    return store(mem, addr, value)


def simplify_exp(e):
    return bir.fold(e, _rule)


def simplify(sbar: SymbolicState, *, memo=None) -> SymbolicState:
    """Rewrite all state expressions; meaning is preserved for every
    interpretation.  `memo` (see `bir.fold`) carries results across calls."""
    new_env = {v: bir.fold(e, _rule, memo) for v, e in sbar.env.items()}
    return replace(sbar, path=bir.fold(sbar.path, _rule, memo), env=new_env)


# ---------------------------------------------------------------------------
# Abbreviation

def abbreviate(sbar: SymbolicState, gen) -> SymbolicState:
    """Introduce fresh definition symbols ab<N>, N drawn from the run's
    counter `gen`, for the word expressions and the path condition over
    ABBREV_THRESHOLD nodes; expanding the definitions restores the original
    state.  Memory is never abbreviated: a store chain grows linearly, and
    the simplifier reads it without definitions."""
    abbrevs = list(sbar.abbrevs)
    env = dict(sbar.env)
    changed = False
    for v in env:
        e = env[v]
        if v.ty is not bir.Mem and not isinstance(e, Sym) and \
                bir.node_count(e) > ABBREV_THRESHOLD:
            a = sym(f"ab{next(gen)}", e.ty)
            abbrevs.append((a, e))
            env[v] = a
            changed = True
    path = sbar.path
    if not isinstance(path, (Sym, Const)) and bir.node_count(path) > ABBREV_THRESHOLD:
        a = sym(f"ab{next(gen)}", bir.Imm1)
        abbrevs.append((a, path))
        path = a
        changed = True
    if not changed:
        return sbar
    return replace(sbar, env=env, path=path, abbrevs=tuple(abbrevs))


# ---------------------------------------------------------------------------
# Stepping

def step_block(program, sbar: SymbolicState, solver: SolverConfig | None = None) -> list:
    """Symbolically execute the block at sbar.at, which must exist (`execute`
    keeps a state at any other label as a leaf).  A conditional jump on a
    symbolic condition splits the state and drops the sides the solver finds
    infeasible; a computed jump is resolved by case analysis over
    solver-enumerated feasible constant targets, each already shown feasible
    by the model that found it."""
    block = program.block(sbar.at)
    env = dict(sbar.env)
    for st in block.statements:
        env[st.var] = bir.subst(st.exp, var_map=env)
    base = replace(sbar, env=env)
    end = block.end

    if isinstance(end, bir.Jmp):
        return _goto(base, end.target, solver)
    cond = simplify_exp(bir.subst(end.cond, var_map=env))
    if isinstance(cond, Const):
        return [replace(base, at=end.target_true if cond.val == 1 else end.target_false)]
    taken = replace(base, path=binop("and", sbar.path, cond), at=end.target_true)
    not_taken = replace(base, path=binop("and", sbar.path, unop("not", cond)),
                        at=end.target_false)
    return prune_infeasible([taken, not_taken], solver)


def _goto(state, target, solver):
    if not isinstance(target, bir.BirExp):
        return [replace(state, at=target)]
    t_exp = simplify_exp(bir.subst(target, var_map=state.env))
    if isinstance(t_exp, Const):
        return [replace(state, at=t_exp.val)]
    found = []
    out = []
    defs = state.abbrevs
    # the model binds free symbols only, so the target is read back closed
    t_closed, = bir.inline_defs([t_exp], defs)
    while len(found) <= MAX_INDIRECT_TARGETS:
        hyps = [state.path] + [binpred("ne", t_exp, const(64, c)) for c in found]
        v = check(Obligation("feasibility", tuple(hyps), bir.true_exp,
                             origin=f"indirect@0x{state.at:x}", defs=defs), solver)
        if v.is_unsat:
            return out
        if not v.is_sat:
            raise IndirectTargetUnbounded(
                f"solver could not bound computed jump at 0x{state.at:x}: {v.reason}")
        Hx = dict(v.model)
        for name, s in bir.collect_syms(t_closed).items():
            # symbols unconstrained by the path may be absent from the model
            Hx.setdefault(name, {} if s.ty is bir.Mem else 0)
        c = bir.eval_exp(t_closed, {}, Hx)
        found.append(c)
        out.append(replace(state, path=binop("and", state.path,
                                             binpred("eq", t_exp, const(64, c))),
                           at=c))
    raise IndirectTargetUnbounded(
        f"computed jump at 0x{state.at:x} has more than {MAX_INDIRECT_TARGETS} "
        "feasible targets")


# ---------------------------------------------------------------------------
# Pruning

def prune_infeasible(states, solver: SolverConfig | None):
    """Drop states whose path condition is unsat; unknown verdicts are kept
    (sound over-approximation)."""
    states = list(states)
    obls = [Obligation("feasibility", (), s.path, origin=f"prune@0x{s.at:x}",
                       defs=s.abbrevs) for s in states]
    verdicts = check_many(obls, solver)
    return [s for s, v in zip(states, verdicts) if not v.is_unsat]


# ---------------------------------------------------------------------------
# The driver

def execute(program, entry, endpoints, forbidden, precond,
            config: EngineConfig | None = None,
            solver: SolverConfig | None = None,
            extra_vars=()) -> SymbolicStructure:
    """Worklist-driven symbolic execution from `entry` until every frontier
    state is a leaf: at an endpoint or a forbidden label, or out of the
    program."""
    config = config or EngineConfig()
    stops = frozenset(endpoints) | frozenset(forbidden)
    initial = init_state(program, entry, precond, extra_vars)
    gen = itertools.count()  # abbreviation symbols ab0, ab1, ... of this run
    # simplifier results of this run, keyed by id(node): sound because the
    # rules read only the node and bir._interned keeps every node (so every
    # id) alive; never shared across runs
    memo = {}
    labels = {entry}
    leaves = []
    # stack entries: (state, per-path visit counts)
    stack = [(initial, {})]
    steps = 0
    while stack:
        state, visits = stack.pop()
        if state.at in stops or program.block(state.at) is None:
            labels.add(state.at)
            leaves.append(state)
            continue
        seen = visits.get(state.at, 0)
        if seen > config.unroll:
            raise BudgetExhausted(
                f"label 0x{state.at:x} revisited beyond unroll bound {config.unroll}")
        steps += 1
        if steps > MAX_STEPS:
            raise BudgetExhausted(f"step budget {MAX_STEPS} exceeded")
        labels.add(state.at)
        children = step_block(program, state, solver)
        children = [simplify(c, memo=memo) for c in children]
        children = [abbreviate(c, gen) for c in children]
        if len(stack) + len(children) + len(leaves) > MAX_STATES:
            raise BudgetExhausted(f"state budget {MAX_STATES} exceeded")
        nvisits = dict(visits)
        nvisits[state.at] = seen + 1
        for child in sorted(children, key=lambda s: s.at, reverse=True):
            stack.append((child, nvisits))
    leaves.sort(key=lambda s: s.at)  # stable: equal labels keep their order
    return SymbolicStructure(initial=initial, labels=frozenset(labels),
                             leaves=tuple(leaves))


# ---------------------------------------------------------------------------
# Rendering

def state_to_text(s: SymbolicState) -> str:
    out = [f"at 0x{s.at:x}"]
    out.append(f"  path {bir.print_exp(s.path)}")
    for v in s.env:
        out.append(f"  {v.name} = {bir.print_exp(s.env[v])}")
    for a, d in s.abbrevs:
        out.append(f"  def {a.name} = {bir.print_exp(d)}")
    return "\n".join(out)


def structure_to_text(st: SymbolicStructure) -> str:
    out = ["initial:", state_to_text(st.initial)]
    out.append("labels: " + " ".join(f"0x{l:x}" for l in sorted(st.labels)))
    out.append(f"leaves: {len(st.leaves)}")
    for i, leaf in enumerate(st.leaves):
        out.append(f"leaf {i}:")
        out.append(state_to_text(leaf))
    return "\n".join(out)


def _state_json(s):
    return {
        "at": f"0x{s.at:x}",
        "halted": False,  # kept: bircheck-structure/1 field names are stable
        "path": bir.print_exp(s.path),
        "env": {v.name: bir.print_exp(e) for v, e in s.env.items()},
        "abbrevs": [{"name": a.name, "def": bir.print_exp(d)} for a, d in s.abbrevs],
    }


def structure_to_json(st: SymbolicStructure) -> str:
    doc = {
        "schema": "bircheck-structure/1",
        "initial": _state_json(st.initial),
        "labels": [f"0x{l:x}" for l in sorted(st.labels)],
        "leaves": [_state_json(s) for s in st.leaves],
    }
    return json.dumps(doc, indent=2)
