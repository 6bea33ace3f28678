"""ISA-level and BIR-level binary contracts.

A contract names an entry address, a set of endpoint addresses, parameters,
a precondition and one postcondition per endpoint.  ISA-level predicates are
conjunctions of comparisons over registers, CSRs, 64-bit little-endian memory
loads, parameters and 64-bit word arithmetic.  They translate mechanically to
IR expressions over the lifter's variable convention; the translation is
validated by evaluation equivalence on random states.

Verification runs the symbolic engine with the translated precondition as the
initial path condition (a forbidden label ends a path as an endpoint does) and
discharges one obligation per leaf; a sat counter-model refutes the contract
and replays concretely.

Contract file grammar (line oriented, '#' comments)::

    program <name>
    entry <addr>
    endpoints <addr> [<addr> ...]
    forbidden [<addr> ...]
    params <name> [<name> ...]
    pre:
      <comparison>            ; one conjunct per line
      ...
    post <addr>:              ; one of the endpoints; a missing post is true
      <comparison>
      ...

    comparison ::= expr (== | <u | <=u) expr
    expr       ::= sums and masks over: INT, 0xHEX, param, gpr[i], csr[name],
                   mem_load_dword(expr), sext32(expr), (expr),
                   with operators  * ; + - ; << >> >>s ; & ; ^ ; |
"""

from __future__ import annotations

import math
import operator
import random
import re
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import bir, isa, lifter, symexec
from .bir import binop, binpred, cast, const, den, load, sym
from .smt import Obligation, SolverConfig, check


class ContractError(Exception):
    pass


class UntranslatableAtom(ContractError):
    pass


# ---------------------------------------------------------------------------
# Predicate expressions

# `kids` lists a node's children, for `bir.fold`

@dataclass(frozen=True)
class RConst:
    val: int
    kids = ()


@dataclass(frozen=True)
class RParam:
    name: str
    kids = ()


@dataclass(frozen=True)
class RGpr:
    idx: int
    kids = ()


@dataclass(frozen=True)
class RCsr:
    name: str
    kids = ()


@dataclass(frozen=True)
class RMemLoad:
    addr: object
    kids = property(lambda self: (self.addr,))


@dataclass(frozen=True)
class RUn:
    op: str  # sext32
    a: object
    kids = property(lambda self: (self.a,))


@dataclass(frozen=True)
class RBin:
    op: str  # a key of BIN_OPS
    a: object
    b: object
    kids = property(lambda self: (self.a, self.b))


@dataclass(frozen=True)
class RCmp:
    op: str  # a key of CMP_OPS
    a: object
    b: object


# a predicate is a conjunction of comparisons; () is true
Predicate = tuple

M64 = (1 << 64) - 1


class BinOpInfo(NamedTuple):
    text: str     # contract syntax
    prec: int     # binding strength: a higher one binds tighter
    bir: str      # the BIR operator it translates to
    val: object   # its value on 64-bit words


# `val` is kept apart from bir._binop_val: translation_check compares the two
BIN_OPS = {
    "or": BinOpInfo("|", 0, "or", operator.or_),
    "xor": BinOpInfo("^", 1, "xor", operator.xor),
    "and": BinOpInfo("&", 2, "and", operator.and_),
    "shl": BinOpInfo("<<", 3, "shl", lambda a, b: (a << b) & M64 if b < 64 else 0),
    "lshr": BinOpInfo(">>", 3, "lshr", lambda a, b: a >> b if b < 64 else 0),
    "ashr": BinOpInfo(">>s", 3, "ashr",
                      lambda a, b: (isa.to_signed(a) >> min(b, 63)) & M64),
    "add": BinOpInfo("+", 4, "plus", lambda a, b: (a + b) & M64),
    "sub": BinOpInfo("-", 4, "minus", lambda a, b: (a - b) & M64),
    "mul": BinOpInfo("*", 5, "mult", lambda a, b: (a * b) & M64),
}

# op -> (contract syntax, value); the BIR predicates have the same names
CMP_OPS = {"eq": ("==", operator.eq), "ult": ("<u", operator.lt),
           "ule": ("<=u", operator.le)}


def eval_rexp(e, m: isa.MachineState, params: dict) -> int:
    def rule(e, kv):
        if isinstance(e, RConst):
            return e.val & M64
        if isinstance(e, RParam):
            try:
                return params[e.name] & M64
            except KeyError:
                raise ContractError(f"parameter {e.name} has no value") from None
        if isinstance(e, RGpr):
            return m.read_gpr(e.idx)
        if isinstance(e, RCsr):
            return m.csr[e.name]
        if isinstance(e, RMemLoad):
            return isa.mem_load_dword(m.mem, kv[0])
        if isinstance(e, RUn):
            return isa.u64(isa.sext(kv[0] & 0xFFFFFFFF, 32))
        if e.op not in BIN_OPS:
            raise ContractError(f"unknown operator {e.op}")
        return BIN_OPS[e.op].val(*kv)

    return bir.fold(e, rule)


def eval_pred(pred: Predicate, m: isa.MachineState, params: dict) -> bool:
    for c in pred:
        if not CMP_OPS[c.op][1](eval_rexp(c.a, m, params), eval_rexp(c.b, m, params)):
            return False
    return True


def translate_exp(e):
    """ISA predicate expression -> IR expression over the lift convention."""
    def rule(e, kv):
        if isinstance(e, RConst):
            return const(64, e.val)
        if isinstance(e, RParam):
            return sym(e.name, bir.Imm64)
        if isinstance(e, RGpr):
            if e.idx == 0:
                return const(64, 0)
            return den(lifter.xvar(e.idx))
        if isinstance(e, RCsr):
            return den(lifter.csrvar(e.name))
        if isinstance(e, RMemLoad):
            return load(den(lifter.MEM8), kv[0], 64)
        if isinstance(e, RUn):
            return cast("sext", 64, cast("low", 32, kv[0]))
        if isinstance(e, RBin):
            return binop(BIN_OPS[e.op].bir, *kv)
        raise UntranslatableAtom(repr(e))

    return bir.fold(e, rule)


def translate(pred: Predicate):
    """Conjunction of translated comparisons as an imm1 expression."""
    out = bir.true_exp
    for c in pred:
        atom = binpred(c.op, translate_exp(c.a), translate_exp(c.b))
        out = atom if out is bir.true_exp else binop("and", out, atom)
    return out


def pred_params(pred: Predicate):
    names = {}
    for c in pred:
        for side in (c.a, c.b):
            bir.fold(side, lambda e, _: names.setdefault(e.name)
                     if isinstance(e, RParam) else None)
    return list(names)


# ---------------------------------------------------------------------------
# Contracts

@dataclass(frozen=True)
class Param:
    name: str


@dataclass
class RiscvContract:
    name: str
    entry: int
    endpoints: frozenset
    pre: Predicate
    post: dict            # endpoint -> Predicate; an endpoint left out gets ()
    params: tuple         # of Param
    forbidden: frozenset = frozenset()

    def __post_init__(self):
        missing = sorted(self.endpoints - self.post.keys())
        self.post = {**self.post, **dict.fromkeys(missing, ())}
        for a in self.post:
            if a not in self.endpoints:
                raise ContractError(f"postcondition at 0x{a:x} is not an endpoint")
        clash = self.endpoints & self.forbidden
        if clash:
            raise ContractError(f"0x{min(clash):x} is both an endpoint and forbidden")


@dataclass
class BirContract:
    program: bir.BirProgram
    entry: int
    endpoints: frozenset
    forbidden: frozenset
    pre: object            # imm1 SymExpr over program variables + params
    post: dict             # label -> imm1 SymExpr (others implicitly false)


def trivial_contract(entry, ends) -> RiscvContract:
    """No parameters, an empty pre and an empty post at each end: executing
    it is a plain engine run from `entry` to `ends`."""
    return RiscvContract(name=f"0x{entry:x}", entry=entry, endpoints=frozenset(ends),
                         pre=(), post={}, params=())


def to_bir(rc: RiscvContract, program: bir.BirProgram) -> BirContract:
    return BirContract(program=program, entry=rc.entry, endpoints=rc.endpoints,
                       forbidden=rc.forbidden, pre=translate(rc.pre),
                       post={ep: translate(p) for ep, p in rc.post.items()})


# ---------------------------------------------------------------------------
# Contract text format

_TOKEN_RE = re.compile(r"""
    (?P<hex>0x[0-9a-fA-F]+) | (?P<int>\d+) |
    (?P<name>[A-Za-z_][A-Za-z_0-9.]*) |
    (?P<op><=u|<u|==|>>s|<<|>>|[-+*&^|()\[\],])
""", re.X)


def _number(text, where, base=0):
    """A literal or address of the contract text: a 64-bit word."""
    try:
        n = int(text, base)
    except ValueError:
        raise ContractError(f"{where}: bad number {text!r}") from None
    if not 0 <= n <= M64:
        raise ContractError(f"{where}: {text} does not fit in 64 bits")
    return n


def _tokenize_expr(text, where):
    pos = 0
    out = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ContractError(f"{where}: cannot tokenize {text[pos:]!r}")
        out.append(m.group(0))
        pos = m.end()
    return out


class _ExprParser:
    OPS = {info.text: op for op, info in BIN_OPS.items()}
    CMPS = {text: op for op, (text, _) in CMP_OPS.items()}
    # each parenthesis level costs at most 5 parser frames; deeper input is
    # rejected rather than run into the interpreter's recursion limit
    MAX_NESTING = 128

    def __init__(self, tokens, params, where):
        self.toks = tokens
        self.i = 0
        self.params = params
        self.where = where
        self.depth = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, what=None):
        t = self.peek()
        if t is None or (what is not None and t != what):
            raise ContractError(f"{self.where}: expected {what!r}, got {t!r}")
        self.i += 1
        return t

    def parse_cmp(self):
        a = self.parse_expr()
        op = self.peek()
        if op not in self.CMPS:
            raise ContractError(f"{self.where}: expected comparison, got {op!r}")
        self.take()
        b = self.parse_expr()
        if self.peek() is not None:
            raise ContractError(f"{self.where}: trailing tokens {self.toks[self.i:]}")
        return RCmp(self.CMPS[op], a, b)

    def parse_expr(self, min_prec=0):
        """Binary operators of precedence >= min_prec, left-associative
        (precedence climbing: one frame per rising precedence, not per level)."""
        e = self.parse_unary()
        while (op := self.OPS.get(self.peek())) and BIN_OPS[op].prec >= min_prec:
            self.take()
            e = RBin(op, e, self.parse_expr(BIN_OPS[op].prec + 1))
        return e

    def parse_unary(self):
        negations = 0
        while self.peek() == "-":
            self.take()
            negations += 1
        e = self.parse_primary()
        for _ in range(negations):
            e = RBin("sub", RConst(0), e)
        return e

    def parse_nested(self):
        """An expression and its closing parenthesis, one level down."""
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            raise ContractError(f"{self.where}: parentheses nest deeper than "
                                f"{self.MAX_NESTING}")
        e = self.parse_expr()
        self.take(")")
        self.depth -= 1
        return e

    def parse_primary(self):
        t = self.take()
        if t == "(":
            return self.parse_nested()
        if t.startswith("0x"):
            return RConst(_number(t, self.where, 16))
        if t.isdigit():
            return RConst(_number(t, self.where, 10))
        if t == "gpr":
            self.take("[")
            idx = _number(self.take(), self.where, 10)
            self.take("]")
            if not 0 <= idx < 32:
                raise ContractError(f"{self.where}: bad register index {idx}")
            return RGpr(idx)
        if t == "csr":
            self.take("[")
            name = self.take()
            self.take("]")
            if name not in isa.CSR_LIST:
                raise ContractError(f"{self.where}: unsupported csr {name!r}")
            return RCsr(name)
        if t == "mem_load_dword":
            self.take("(")
            return RMemLoad(self.parse_nested())
        if t == "sext32":
            self.take("(")
            return RUn("sext32", self.parse_nested())
        if t in self.params:
            return RParam(t)
        raise ContractError(f"{self.where}: unknown symbol {t!r} "
                            f"(parameters must be declared)")


def parse_comparison(text, params, where="predicate"):
    return _ExprParser(_tokenize_expr(text, where), params, where).parse_cmp()


def parse_contract(text: str) -> RiscvContract:
    name = None
    entry = None
    endpoints = []
    forbidden = []
    params = []
    pre = []
    post = {}
    section = None  # None | ("pre",) | ("post", addr)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {line_no}"
        head, _, rest = line.partition(" ")
        if head == "program":
            name = rest.strip()
            section = None
        elif head == "entry":
            entry = _number(rest.strip(), where)
            section = None
        elif head in ("endpoint", "endpoints"):
            endpoints += [_number(x, where) for x in rest.split()]
            section = None
        elif head == "forbidden":
            forbidden += [_number(x, where) for x in rest.split()]
            section = None
        elif head in ("param", "params"):
            for p in rest.split():
                if p.startswith("s_") or re.fullmatch(r"ab\d+", p):
                    raise ContractError(f"{where}: parameter name {p!r} collides "
                                        f"with engine symbol namespaces")
                if p in ("gpr", "csr", "mem_load_dword", "sext32"):
                    raise ContractError(f"{where}: parameter name {p!r} is a keyword")
                params.append(p)
            section = None
        elif line in ("pre:", "pre"):
            section = ("pre",)
        elif head == "post":
            addr = rest.strip().rstrip(":").strip()
            section = ("post", _number(addr, where))
        elif section is not None:
            cmpv = parse_comparison(line, set(params), where)
            if section[0] == "pre":
                pre.append(cmpv)
            else:
                post.setdefault(section[1], []).append(cmpv)
        else:
            raise ContractError(f"{where}: unexpected line {line!r}")
    if name is None or entry is None or not endpoints:
        raise ContractError("contract needs program, entry and endpoints")
    return RiscvContract(name=name, entry=entry, endpoints=frozenset(endpoints),
                         pre=tuple(pre), post={a: tuple(p) for a, p in post.items()},
                         params=tuple(Param(p) for p in params),
                         forbidden=frozenset(forbidden))


def print_rexp(e) -> str:
    """Text that the contract parser reads back as `e`: an operand is
    parenthesised only where precedence, or left-associativity on the
    right, would regroup it."""
    def prec(e):
        return BIN_OPS[e.op].prec if isinstance(e, RBin) else math.inf

    def rule(e, kv):
        if isinstance(e, RConst):
            return str(e.val) if e.val < 1024 else f"0x{e.val:x}"
        if isinstance(e, RParam):
            return e.name
        if isinstance(e, RGpr):
            return f"gpr[{e.idx}]"
        if isinstance(e, RCsr):
            return f"csr[{e.name}]"
        if isinstance(e, RMemLoad):
            return f"mem_load_dword({kv[0]})"
        if isinstance(e, RUn):
            return f"sext32({kv[0]})"
        a, b = kv
        if prec(e.a) < prec(e):
            a = f"({a})"
        if prec(e.b) <= prec(e):
            b = f"({b})"
        return f"{a} {BIN_OPS[e.op].text} {b}"

    return bir.fold(e, rule)


def print_contract(rc: RiscvContract) -> str:
    out = [f"program {rc.name}", f"entry 0x{rc.entry:x}",
           "endpoints " + " ".join(f"0x{a:x}" for a in sorted(rc.endpoints))]
    if rc.forbidden:
        out.append("forbidden " + " ".join(f"0x{a:x}" for a in sorted(rc.forbidden)))
    if rc.params:
        out.append("params " + " ".join(p.name for p in rc.params))
    out.append("pre:")
    for c in rc.pre:
        out.append(f"  {print_rexp(c.a)} {CMP_OPS[c.op][0]} {print_rexp(c.b)}")
    for ep in sorted(rc.post):
        out.append(f"post 0x{ep:x}:")
        for c in rc.post[ep]:
            out.append(f"  {print_rexp(c.a)} {CMP_OPS[c.op][0]} {print_rexp(c.b)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Verification

@dataclass
class VerificationResult:
    verdict: str                   # "verified" | "refuted" | "unknown"
    endpoint: int | None = None    # refuting leaf location
    counterexample: dict | None = None
    reason: str = ""
    leaf_count: int = 0
    obligations: list = field(default_factory=list)  # {origin, kind, status, seconds}
    times: dict = field(default_factory=dict)
    structure: object = None

    def to_json_dict(self):
        cex = None
        if self.counterexample is not None:
            cex = {k: (v if isinstance(v, int) else
                       {f"0x{a:x}": b for a, b in sorted(v.items())})
                   for k, v in sorted(self.counterexample.items())}
        return {
            "schema": "bircheck-report/1",
            "verdict": self.verdict,
            "endpoint": f"0x{self.endpoint:x}" if self.endpoint is not None else None,
            "counterexample": cex,
            "reason": self.reason,
            "leaves": self.leaf_count,
            "obligations": self.obligations,
            "times": {k: round(v, 6) for k, v in self.times.items()},
        }


def execute(bc: BirContract, config: symexec.EngineConfig | None = None,
            solver: SolverConfig | None = None) -> symexec.SymbolicStructure:
    """The symbolic structure `verify` checks: the engine run from the entry
    under the precondition, with every variable of pre and post bound to a
    symbol even where the program does not mention it."""
    seen = {}
    for e in (bc.pre, *bc.post.values()):
        bir._collect_vars(e, seen)
    solver = solver or SolverConfig()
    with solver.session():
        return symexec.execute(bc.program, bc.entry, bc.endpoints, bc.forbidden,
                               bc.pre, config, solver, extra_vars=list(seen.values()))


def verify(bc: BirContract, config: symexec.EngineConfig | None = None,
           solver: SolverConfig | None = None) -> VerificationResult:
    """Symbolically execute under the contract precondition and discharge one
    solver check per leaf: post entailment at an endpoint (which also decides
    any load/store aliasing the simplifier left open), path feasibility at a
    forbidden label or any other non-endpoint, where `sat` refutes."""
    solver = solver or SolverConfig()
    t_start = time.perf_counter()
    log = []
    t_solver = 0.0

    def discharge(state, entailment):
        """Check, time and log a leaf: post entailment, else path feasibility."""
        nonlocal t_solver
        if entailment:
            goal = bir.subst(bc.post[state.at], var_map=state.env)
            goal = symexec.simplify_exp(goal)
            obl = Obligation("entailment", (state.path,), goal,
                             origin=f"post@0x{state.at:x}", defs=state.abbrevs)
        else:
            obl = Obligation("feasibility", (), state.path,
                             origin=f"leaf@0x{state.at:x}", defs=state.abbrevs)
        t0 = time.perf_counter()
        v = check(obl, solver)
        dt = time.perf_counter() - t0
        t_solver += dt
        log.append({"origin": obl.origin, "kind": obl.kind, "status": v.status,
                    "seconds": round(dt, 6)})
        return v

    with solver.session():  # the run's checks share one solver child
        t0 = time.perf_counter()
        try:
            structure = execute(bc, config, solver)
        except (symexec.BudgetExhausted, symexec.IndirectTargetUnbounded) as e:
            budget = "budget exhausted: " if isinstance(e, symexec.BudgetExhausted) else ""
            return VerificationResult("unknown", reason=f"{budget}{e}",
                                      times={"total": time.perf_counter() - t_start,
                                             "symex": time.perf_counter() - t0})
        t_symex = time.perf_counter() - t0

        result = VerificationResult("verified", leaf_count=len(structure.leaves),
                                    structure=structure, obligations=log)
        unknown_reason = ""
        for leaf in structure.leaves:
            at_endpoint = leaf.at in bc.endpoints
            v = discharge(leaf, entailment=at_endpoint)
            if v.is_sat:
                result.verdict = "refuted"
                result.endpoint = leaf.at
                result.counterexample = v.model
                result.reason = (f"postcondition violated at 0x{leaf.at:x}" if at_endpoint
                                 else "forbidden label reached" if leaf.at in bc.forbidden
                                 else f"leaf at non-endpoint 0x{leaf.at:x}")
                break
            # an unsat non-endpoint leaf is a path that cannot run
            if not v.is_unsat:
                unknown_reason = (f"solver returned {v.status} for post@0x{leaf.at:x}"
                                  if at_endpoint else f"feasibility unknown at 0x{leaf.at:x}")
                unknown_reason += f" ({v.reason})"
        if result.verdict == "verified" and unknown_reason:
            result.verdict = "unknown"
            result.reason = unknown_reason
        result.times = {"total": time.perf_counter() - t_start,
                        "symex": t_symex, "solver": t_solver}
        return result


# ---------------------------------------------------------------------------
# Concrete replay and sampling

def machine_from_model(model) -> isa.MachineState:
    m = isa.MachineState()
    for i in range(1, 32):
        m.gpr[i] = model.get(f"s_x{i}", 0)
    for name in isa.CSR_LIST:
        m.csr[name] = model.get(f"s_{name}", 0)
    mem = model.get("s_MEM8", {})
    m.mem = dict(mem) if isinstance(mem, dict) else {}
    return m


def params_from_model(rc: RiscvContract, model) -> dict:
    return {p.name: model.get(p.name, 0) for p in rc.params}


REPLAY_FUEL = 100_000  # instructions a replay runs before `isa.run` gives up


def replay_counterexample(rc: RiscvContract, prog_slice, model):
    """Run the ISA interpreter from the counter-model's initial state and
    report (stop address, post holds?).  A run stops at the first endpoint or
    forbidden label it reaches, or where it leaves the slice; no
    postcondition holds at a forbidden label or outside the slice."""
    m = machine_from_model(model)
    m.pc = rc.entry
    params = params_from_model(rc, model)
    stops = replace(prog_slice, end_addrs=prog_slice.end_addrs | rc.forbidden)
    try:
        final, _ = isa.run(m, stops, REPLAY_FUEL)
    except isa.PcOutsideSlice as e:
        return e.pc, False
    if final.pc in rc.forbidden:
        return final.pc, False
    post = rc.post.get(final.pc)
    holds = post is not None and eval_pred(post, final, params)
    return final.pc, holds


def sample_prestate(rc: RiscvContract, rng: random.Random):
    """A random (MachineState, params) satisfying the precondition.  Handles
    the common atom shapes directly (range constraints on parameters,
    equalities pinning registers/CSRs/memory to parameter expressions) and
    falls back to rejection sampling."""
    for _ in range(200):
        m = isa.MachineState(pc=rc.entry)
        for i in range(1, 32):
            m.gpr[i] = rng.getrandbits(64)
        for name in isa.CSR_LIST:
            m.csr[name] = rng.getrandbits(64)
        params = {p.name: rng.getrandbits(64) for p in rc.params}
        for c in rc.pre:  # clamp parameter ranges first
            if c.op in ("ult", "ule") and isinstance(c.a, RParam) and \
                    isinstance(c.b, RConst):
                bound = c.b.val + (1 if c.op == "ule" else 0)
                if bound:
                    params[c.a.name] %= bound
        ok = True
        for c in rc.pre:
            if c.op != "eq":
                continue
            lhs, rhs = c.a, c.b
            if not isinstance(lhs, (RGpr, RCsr, RMemLoad)):
                lhs, rhs = rhs, lhs
            try:
                val = eval_rexp(rhs, m, params)
            except ContractError:
                ok = False
                break
            if isinstance(lhs, RGpr) and lhs.idx != 0:
                m.gpr[lhs.idx] = val
            elif isinstance(lhs, RCsr):
                m.csr[lhs.name] = val
            elif isinstance(lhs, RMemLoad):
                addr = eval_rexp(lhs.addr, m, params)
                isa.mem_store(m.mem, addr, val, 8)
        if ok and eval_pred(rc.pre, m, params):
            return m, params
    raise ContractError(f"could not sample a state satisfying the precondition "
                        f"of {rc.name}")


# ---------------------------------------------------------------------------
# Translation equivalence (ISA predicate vs translated IR predicate)

def translation_check(pred: Predicate, trials: int, seed: int):
    """Evaluate the ISA predicate and its translation on random states and
    parameter valuations; exact agreement required."""
    rng = random.Random(seed)
    exp = translate(pred)
    params = pred_params(pred)
    mismatches = []
    for t in range(trials):
        m = lifter.random_machine_state(rng, 0)
        vals = {p: rng.getrandbits(64) for p in params}
        # make memory atoms read seeded bytes sometimes
        for c in pred:
            for e in _memloads(c):
                try:
                    addr = eval_rexp(e.addr, m, vals)
                except ContractError:
                    continue
                if rng.random() < 0.8:
                    for k in range(8):
                        m.mem[(addr + k) & M64] = rng.getrandbits(8)
        want = eval_pred(pred, m, vals)
        env = lifter.machine_to_env(m)
        got = bir.eval_exp(exp, env, vals) == 1
        if want != got:
            mismatches.append({"trial": t, "want": want, "got": got})
            if len(mismatches) >= 3:
                break
    return mismatches


def _memloads(c):
    """The memory loads of comparison `c`, inner ones first: an outer load's
    address is then read from the bytes seeded for the inner one."""
    out = []
    for side in (c.a, c.b):
        bir.fold(side, lambda e, _: out.append(e) if isinstance(e, RMemLoad) else None)
    return out
