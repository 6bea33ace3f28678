"""Typed block-structured intermediate language for lifted RV64 code.

A program is an ordered list of labeled blocks; each block is a list of
assignments ending in a jump (to an address or a computed one) or a
conditional jump between two addresses: exactly what `lifter.lift_instr`
builds.  Expressions are fixed-width words (1/8/16/32/64 bit) and a
byte-granular little-endian memory (64-bit addresses, 8-bit cells), which is
only loaded from and stored to: no producer compares or chooses memories.

Expression nodes are interned: building the same node twice yields the
same object, so structural equality is identity and trees share structure as
DAGs.  Do not mutate nodes.  Walkers do not recurse: ``fold`` visits each
distinct node once, children first and left to right, on an explicit stack
of child iterators, and memoises on ``id()``; so expression depth is bounded
by memory, not by Python's recursion limit.

Text serialization grammar (one ``(block ...)`` form per block)::

    program  ::= (program (vars (NAME TYPE)*) block*)
    TYPE     ::= imm1 | imm8 | imm16 | imm32 | imm64 | mem
    block    ::= (block ADDR "comment" stmt* end)
    stmt     ::= (assign NAME exp)
    end      ::= (jmp ADDR) | (jmp-ind exp) | (cjmp exp ADDR ADDR)
    exp      ::= (constN VALUE)            ; N in 1,8,16,32,64
               | (den NAME) | (sym NAME TYPE)
               | (OP exp exp)              ; + - * udiv & | ^ << >>u >>s
               | (PRED exp exp)            ; == != <u <=u <s, words only
               | (not exp) | (chsign exp)
               | (ite exp exp exp)         ; word arms only
               | (low N exp) | (sext N exp) | (zext N exp)
               | (load exp exp N) | (store exp exp exp)
    ADDR     ::= 0xHEX
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Types

class BirType:
    __slots__ = ("width",)

    def __init__(self, width):
        self.width = width  # bits for Imm; None for Mem

    def __repr__(self):
        return "mem" if self.width is None else f"imm{self.width}"


Imm1 = BirType(1)
Imm8 = BirType(8)
Imm16 = BirType(16)
Imm32 = BirType(32)
Imm64 = BirType(64)
Mem = BirType(None)  # 64-bit addresses, 8-bit cells

IMM_TYPES = {1: Imm1, 8: Imm8, 16: Imm16, 32: Imm32, 64: Imm64}
ACCESS_WIDTHS = (8, 16, 32, 64)


def imm_type(width):
    try:
        return IMM_TYPES[width]
    except KeyError:
        raise TypeMismatch(f"no {width}-bit immediate type") from None


def mask(width):
    return (1 << width) - 1


@dataclass(frozen=True)
class BirVar:
    name: str
    ty: BirType

    def __repr__(self):
        return f"{self.name}:{self.ty}"


# ---------------------------------------------------------------------------
# Errors

class BirError(Exception):
    pass


class TypeMismatch(BirError):
    """An expression subterm is ill-typed."""


class UnboundVar(BirError):
    pass


class UnboundSymbol(BirError):
    pass


# ---------------------------------------------------------------------------
# Expressions (interned)

BIN_OPS = ("plus", "minus", "mult", "udiv", "and", "or", "xor", "shl", "lshr", "ashr")
PRED_OPS = ("eq", "ne", "ult", "ule", "slt")
UN_OPS = ("not", "chsign")
CAST_KINDS = ("low", "sext", "zext")

_interned: dict = {}


def _intern(cls, key, *args):
    node = _interned.get(key)
    if node is None:
        node = object.__new__(cls)
        node._init(*args)
        _interned[key] = node
    return node


class BirExp:
    """Base of all expression nodes.  Equality is identity (nodes interned).

    `kids` holds the child expressions in field order (empty for leaves) and
    `size` the node count of the expression seen as a tree; traversals walk
    `kids`, and `with_kids` rebuilds an interior node over new children."""

    __slots__ = ("ty",)

    def __repr__(self):
        return print_exp(self)


class _Leaf(BirExp):
    __slots__ = ()
    kids = ()
    size = 1


class _Interior(BirExp):
    __slots__ = ("kids", "size")


class Const(_Leaf):
    __slots__ = ("val",)

    def _init(self, ty, val):
        self.ty = ty
        self.val = val


class Den(_Leaf):
    __slots__ = ("var",)

    def _init(self, var):
        self.ty = var.ty
        self.var = var


class Sym(_Leaf):
    """A symbolic-engine symbol; concrete evaluation needs an interpretation."""

    __slots__ = ("name",)

    def _init(self, name, ty):
        self.ty = ty
        self.name = name


class UnOp(_Interior):
    __slots__ = ("op", "a")

    def _init(self, op, a):
        self.ty = a.ty
        self.op = op
        self.a = a
        self.kids = (a,)
        self.size = 1 + a.size

    def with_kids(self, a):
        return unop(self.op, a)


class BinOp(_Interior):
    __slots__ = ("op", "a", "b")

    def _init(self, op, a, b):
        self.ty = a.ty
        self.op = op
        self.a = a
        self.b = b
        self.kids = (a, b)
        self.size = 1 + a.size + b.size

    def with_kids(self, a, b):
        return binop(self.op, a, b)


class BinPred(_Interior):
    __slots__ = ("op", "a", "b")

    def _init(self, op, a, b):
        self.ty = Imm1
        self.op = op
        self.a = a
        self.b = b
        self.kids = (a, b)
        self.size = 1 + a.size + b.size

    def with_kids(self, a, b):
        return binpred(self.op, a, b)


class Ite(_Interior):
    __slots__ = ("cond", "then", "els")

    def _init(self, cond, then, els):
        self.ty = then.ty
        self.cond = cond
        self.then = then
        self.els = els
        self.kids = (cond, then, els)
        self.size = 1 + cond.size + then.size + els.size

    def with_kids(self, cond, then, els):
        return ite(cond, then, els)


class Cast(_Interior):
    __slots__ = ("kind", "a")

    def _init(self, kind, width, a):
        self.ty = imm_type(width)
        self.kind = kind
        self.a = a
        self.kids = (a,)
        self.size = 1 + a.size

    def with_kids(self, a):
        return cast(self.kind, self.ty.width, a)


class Load(_Interior):
    __slots__ = ("mem", "addr", "width")

    def _init(self, mem, addr, width):
        self.ty = imm_type(width)
        self.mem = mem
        self.addr = addr
        self.width = width
        self.kids = (mem, addr)
        self.size = 1 + mem.size + addr.size

    def with_kids(self, mem, addr):
        return load(mem, addr, self.width)


class Store(_Interior):
    __slots__ = ("mem", "addr", "value")

    def _init(self, mem, addr, value):
        self.ty = Mem
        self.mem = mem
        self.addr = addr
        self.value = value
        self.kids = (mem, addr, value)
        self.size = 1 + mem.size + addr.size + value.size

    def with_kids(self, mem, addr, value):
        return store(mem, addr, value)


def const(width, val):
    ty = imm_type(width)
    if not 0 <= val <= mask(width):
        val &= mask(width)
    return _intern(Const, ("c", ty, val), ty, val)


def den(var):
    return _intern(Den, ("d", var.name, var.ty), var)


def sym(name, ty):
    return _intern(Sym, ("s", name, ty), name, ty)


def unop(op, a):
    if op not in UN_OPS:
        raise TypeMismatch(f"unknown unary op {op!r}")
    if a.ty is Mem:
        raise TypeMismatch(f"{op} applied to memory")
    return _intern(UnOp, ("u", op, a), op, a)


def binop(op, a, b):
    if op not in BIN_OPS:
        raise TypeMismatch(f"unknown binary op {op!r}")
    if a.ty is Mem or b.ty is Mem or a.ty is not b.ty:
        raise TypeMismatch(f"{op} operand widths differ: {a.ty} vs {b.ty}")
    return _intern(BinOp, ("b", op, a, b), op, a, b)


def binpred(op, a, b):
    if op not in PRED_OPS:
        raise TypeMismatch(f"unknown predicate {op!r}")
    if a.ty is Mem or a.ty is not b.ty:
        raise TypeMismatch(f"{op} compares words of one type, not {a.ty} and {b.ty}")
    return _intern(BinPred, ("p", op, a, b), op, a, b)


def ite(cond, then, els):
    if cond.ty is not Imm1:
        raise TypeMismatch("ite condition must be imm1")
    if then.ty is Mem or then.ty is not els.ty:
        raise TypeMismatch(f"ite arms must be one word type, not {then.ty} and {els.ty}")
    return _intern(Ite, ("i", cond, then, els), cond, then, els)


def cast(kind, width, a):
    if kind not in CAST_KINDS:
        raise TypeMismatch(f"unknown cast {kind!r}")
    if a.ty is Mem:
        raise TypeMismatch("cast applied to memory")
    if kind == "low" and width > a.ty.width:
        raise TypeMismatch(f"low cast widens {a.ty} to {width}")
    if kind in ("sext", "zext") and width < a.ty.width:
        raise TypeMismatch(f"{kind} cast narrows {a.ty} to {width}")
    return _intern(Cast, ("t", kind, width, a), kind, width, a)


def load(mem_exp, addr, width):
    if mem_exp.ty is not Mem:
        raise TypeMismatch("load from a non-memory expression")
    if addr.ty is not Imm64:
        raise TypeMismatch("load address must be imm64")
    if width not in ACCESS_WIDTHS:
        raise TypeMismatch(f"load width {width} not in {ACCESS_WIDTHS}")
    return _intern(Load, ("l", mem_exp, addr, width), mem_exp, addr, width)


def store(mem_exp, addr, value):
    if mem_exp.ty is not Mem:
        raise TypeMismatch("store to a non-memory expression")
    if addr.ty is not Imm64:
        raise TypeMismatch("store address must be imm64")
    if value.ty is Mem or value.ty.width not in ACCESS_WIDTHS:
        raise TypeMismatch("store value must be 8/16/32/64-bit")
    return _intern(Store, ("w", mem_exp, addr, value), mem_exp, addr, value)


true_exp = const(1, 1)
false_exp = const(1, 0)


# ---------------------------------------------------------------------------
# Statements, blocks, programs

@dataclass(frozen=True)
class Assign:
    var: BirVar
    exp: BirExp

    def __post_init__(self):
        if self.var.ty is not self.exp.ty:
            raise TypeMismatch(f"assign {self.var}: exp has type {self.exp.ty}")


@dataclass(frozen=True)
class Jmp:
    """Direct jump when `target` is an int label, computed jump when a BirExp."""
    target: object

    @property
    def computed(self):
        return isinstance(self.target, BirExp)


@dataclass(frozen=True)
class CJmp:
    cond: BirExp
    target_true: int
    target_false: int

    def __post_init__(self):
        if self.cond.ty is not Imm1:
            raise TypeMismatch("cjmp condition must be imm1")


@dataclass(frozen=True)
class BirBlock:
    label: int
    comment: str
    statements: tuple
    end: object  # Jmp | CJmp


@dataclass
class BirProgram:
    blocks: list
    by_label: dict = field(init=False)

    def __post_init__(self):
        self.by_label = {}
        for b in self.blocks:
            if b.label in self.by_label:
                raise BirError(f"duplicate block label 0x{b.label:x}")
            self.by_label[b.label] = b

    def block(self, label):
        return self.by_label.get(label)

    def variables(self):
        """All variables read or written anywhere in the program, in first-use order."""
        seen = {}
        for b in self.blocks:
            for st in b.statements:
                seen.setdefault(st.var.name, st.var)
                _collect_vars(st.exp, seen)
            e = b.end
            if isinstance(e, CJmp):
                _collect_vars(e.cond, seen)
            elif e.computed:
                _collect_vars(e.target, seen)
        return list(seen.values())


_MISSING = object()


def fold(root, rule, memo=None):
    """`rule(node, kid_values)` applied once to each distinct node under
    `root` (any tree whose nodes list their children in `kids`), children
    first and left to right; returns root's value.  `memo` maps ``id(node)``
    to its value; pass one dict to share values across roots.  The explicit
    stack holds the suspended ancestors, each with its iterator over `kids`
    and the values found so far; leaves need no stack entry."""
    if memo is None:
        memo = {}
    v = memo.get(id(root), _MISSING)
    if v is not _MISSING:
        return v
    node, it, vals = root, iter(root.kids), []
    stack = []
    while True:
        for k in it:
            v = memo.get(id(k), _MISSING)
            if v is _MISSING:
                if k.kids:
                    stack.append((node, it, vals))
                    node, it, vals = k, iter(k.kids), []
                    break
                v = memo[id(k)] = rule(k, ())
            vals.append(v)
        else:
            v = memo[id(node)] = rule(node, vals)
            if not stack:
                return v
            node, it, vals = stack.pop()
            vals.append(v)


def _collect_vars(exp, seen):
    def rule(e, _):
        if isinstance(e, Den):
            seen.setdefault(e.var.name, e.var)

    fold(exp, rule)


def collect_syms(exp, out=None):
    """All Sym leaves of `exp`, keyed by name, in right-to-left pre-order
    (the stack pops the last child first): `(a + b) + c` gives c, b, a."""
    if out is None:
        out = {}
    memo = set()
    stack = [exp]
    while stack:
        e = stack.pop()
        if id(e) in memo:
            continue
        memo.add(id(e))
        if isinstance(e, Sym):
            out.setdefault(e.name, e)
        stack += e.kids
    return out


# ---------------------------------------------------------------------------
# Concrete evaluation

def to_signed(val, width):
    return val - (1 << width) if val & (1 << (width - 1)) else val


def eval_exp(exp, env, interp=None):
    """Evaluate under a concrete environment (BirVar -> value) and an optional
    interpretation (symbol name -> value).  Imm values are unsigned ints,
    memory values are {address: byte} dicts with absent bytes reading 0.

    Both arms of an ``ite`` are evaluated, so every variable and symbol of
    `exp` must be bound, taken or not; all callers pass complete
    environments (model re-checks, computed-jump targets, `symexec.matches`,
    `exec_block` over `lifter.machine_to_env`, `translation_check`)."""

    def rule(e, kv):
        if isinstance(e, Const):
            return e.val
        if isinstance(e, Den):
            try:
                return env[e.var]
            except KeyError:
                raise UnboundVar(e.var.name) from None
        if isinstance(e, Sym):
            if interp is None or e.name not in interp:
                raise UnboundSymbol(e.name)
            return interp[e.name]
        if isinstance(e, UnOp):
            w = e.ty.width
            a, = kv
            if e.op == "not":
                return a ^ mask(w)
            return (-a) & mask(w)  # chsign
        if isinstance(e, BinOp):
            return _binop_val(e.op, kv[0], kv[1], e.ty.width)
        if isinstance(e, BinPred):
            a, b = kv
            if e.op == "slt":
                w = e.a.ty.width
                return int(to_signed(a, w) < to_signed(b, w))
            return int({"eq": a == b, "ne": a != b, "ult": a < b, "ule": a <= b}[e.op])
        if isinstance(e, Ite):
            c, t, f = kv
            return t if c == 1 else f
        if isinstance(e, Cast):
            a, = kv
            w0, w1 = e.a.ty.width, e.ty.width
            if e.kind == "low":
                return a & mask(w1)
            if e.kind == "zext":
                return a
            return to_signed(a, w0) & mask(w1)
        if isinstance(e, Load):
            m, a = kv
            return load_bytes(m, a, e.width // 8)
        if isinstance(e, Store):
            m, a, v = kv
            m = dict(m)
            store_bytes(m, a, v, e.value.ty.width // 8)
            return m
        raise BirError(f"cannot evaluate {e!r}")

    return fold(exp, rule)


def _binop_val(op, a, b, w):
    m = mask(w)
    if op == "plus":
        return (a + b) & m
    if op == "minus":
        return (a - b) & m
    if op == "mult":
        return (a * b) & m
    if op == "udiv":
        return m if b == 0 else a // b
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return (a << b) & m if b < w else 0
    if op == "lshr":
        return a >> b if b < w else 0
    # ashr: shift in sign bits; amounts >= width saturate to sign fill
    s = to_signed(a, w)
    return (s >> b) & m if b < w else (m if s < 0 else 0)


def load_bytes(mem, addr, nbytes):
    v = 0
    for k in range(nbytes):
        v |= mem.get((addr + k) & mask(64), 0) << (8 * k)
    return v


def store_bytes(mem, addr, val, nbytes):
    for k in range(nbytes):
        mem[(addr + k) & mask(64)] = (val >> (8 * k)) & 0xFF


def _norm_mem(m):
    return frozenset((a, b) for a, b in m.items() if b != 0)


def mem_equal(m1, m2):
    return _norm_mem(m1) == _norm_mem(m2)


# ---------------------------------------------------------------------------
# Block execution

def exec_block(block, env):
    """Run one block concretely.  Returns (new env, next label); a computed
    jump target is evaluated and returned as-is (the caller checks that it
    lands on a block label or an exit)."""
    env = dict(env)
    for st in block.statements:
        env[st.var] = eval_exp(st.exp, env)
    e = block.end
    if isinstance(e, CJmp):
        return env, (e.target_true if eval_exp(e.cond, env) == 1 else e.target_false)
    return env, (eval_exp(e.target, env) if e.computed else e.target)


# ---------------------------------------------------------------------------
# Node counting and substitution

def node_count(exp):
    """Number of nodes of the expression seen as a tree (shared subterms are
    counted once per occurrence)."""
    return exp.size


def subst(exp, var_map=None, sym_map=None):
    """Replace Den leaves via var_map (BirVar -> BirExp) and Sym leaves via
    sym_map (name -> BirExp).  DAG structure is preserved."""

    def rule(e, kv):
        if kv:
            kids = tuple(kv)
            # tuples compare identical elements equal (nodes define no __eq__)
            return e if kids == e.kids else e.with_kids(*kids)
        if isinstance(e, Den):
            if var_map is not None and e.var in var_map:
                return var_map[e.var]
        elif isinstance(e, Sym):
            if sym_map is not None and e.name in sym_map:
                return sym_map[e.name]
        return e

    return fold(exp, rule)


def inline_defs(exps, defs):
    """`exps` with abbreviation definitions ((Sym, exp), ...) substituted for
    their symbols; a definition may use the symbols before it."""
    if not defs:
        return list(exps)
    sym_map = {}
    for s, d in defs:
        sym_map[s.name] = subst(d, sym_map=sym_map)
    return [subst(e, sym_map=sym_map) for e in exps]


# ---------------------------------------------------------------------------
# Printing

_BINOP_SYM = {"plus": "+", "minus": "-", "mult": "*", "udiv": "udiv", "and": "&",
              "or": "|", "xor": "^", "shl": "<<", "lshr": ">>u", "ashr": ">>s"}
_PRED_SYM = {"eq": "==", "ne": "!=", "ult": "<u", "ule": "<=u", "slt": "<s"}
_OP_SYM = {**_BINOP_SYM, **_PRED_SYM}  # unary ops print as their names


def _print_parts(e):
    """A node's text before and after its space-separated children."""
    if isinstance(e, Const):
        return f"(const{e.ty.width} 0x{e.val:x})", ""
    if isinstance(e, Den):
        return f"(den {e.var.name})", ""
    if isinstance(e, Sym):
        return f"(sym {e.name} {e.ty})", ""
    if isinstance(e, (UnOp, BinOp, BinPred)):
        return f"({_OP_SYM.get(e.op, e.op)} ", ")"
    if isinstance(e, Ite):
        return "(ite ", ")"
    if isinstance(e, Cast):
        return f"({e.kind} {e.ty.width} ", ")"
    if isinstance(e, Load):
        return "(load ", f" {e.width})"
    return "(store ", ")"


def print_exp(e):
    # Text pieces go straight to `out` from a stack of pending nodes and
    # closing text.  Memoising each node's string instead would keep every
    # prefix of a deep chain alive, quadratic in its depth.
    out = []
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, str):
            out.append(e)
            continue
        head, tail = _print_parts(e)
        out.append(head)
        if e.kids:
            stack.append(tail)
            for k in reversed(e.kids[1:]):
                stack += (k, " ")
            stack.append(e.kids[0])
    return "".join(out)


def print_block(b):
    out = [f'(block 0x{b.label:x} "{b.comment}"']
    out += [f"  (assign {st.var.name} {print_exp(st.exp)})" for st in b.statements]
    e = b.end
    if isinstance(e, CJmp):
        out.append(f"  (cjmp {print_exp(e.cond)} 0x{e.target_true:x} 0x{e.target_false:x}))")
    elif e.computed:
        out.append(f"  (jmp-ind {print_exp(e.target)}))")
    else:
        out.append(f"  (jmp 0x{e.target:x}))")
    return "\n".join(out)


def print_program(p):
    vars_ = " ".join(f"({v.name} {v.ty})" for v in p.variables())
    body = "\n".join(print_block(b) for b in p.blocks)
    if body:
        return f"(program\n(vars {vars_})\n{body})"
    return f"(program\n(vars {vars_}))"
