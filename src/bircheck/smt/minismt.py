"""A small QF_ABV solver speaking SMTLIB2 on stdin/stdout.

This is the bundled fallback backend for environments without a system SMT
solver.  It reads exactly the fragment `backend.encode` writes: the commands
set-logic, declare-const, 0-ary define-fun, assert, check-sat and get-model;
the sorts (_ BitVec w) and (Array (_ BitVec 64) (_ BitVec 8)); symbols,
(_ bvV w) and #b literals; the operators of `BV_OPS`, binary = and distinct
over bit-vectors, ite over bit-vectors, select, store, n-ary concat and the
indexed extract, zero_extend and sign_extend.  Any other input, or input with
the wrong arity, indices or sorts, answers `unknown` with a `minismt:` line on
stderr and exit status 1; general SMTLIB2 scripts need an external QF_ABV
solver such as z3.  Formulas are decided by word-level rewriting followed by
bit-blasting to CNF and CDCL search.  Everything is deterministic.

Usage: bircheck-smt [file.smt2]    (reads stdin when no file is given)
       bircheck-smt --serve        (scripts framed on stdin; see `main`)
"""

from __future__ import annotations

import sys


# ---------------------------------------------------------------------------
# S-expression reading

class SmtInputError(Exception):
    pass


def tokenize(text):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c
            i += 1
        elif c in '|"':
            j = text.find(c, i + 1)
            if j < 0:
                raise SmtInputError(f"unterminated {c}")
            yield text[i:j + 1]
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            yield text[i:j]
            i = j


def read_sexprs(text):
    stack = [[]]
    for tok in tokenize(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2:
                raise SmtInputError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SmtInputError("unbalanced '('")
    return stack[0]


# ---------------------------------------------------------------------------
# Traversal without recursion

_MISSING = object()


def drive(step, root, memo=None):
    """The value of `root` under `step`, a generator function: `step(key)`
    yields each key whose value it needs, gets the value back from that
    `yield`, and returns the value of `key`.  Suspended steps wait on an
    explicit stack.  With a `memo` dict, values are cached by key."""
    if memo is not None:
        val = memo.get(root, _MISSING)
        if val is not _MISSING:
            return val
    stack = [(root, step(root))]
    val = None
    while True:
        key, gen = stack[-1]
        try:
            want = gen.send(val)
        except StopIteration as done:
            val = done.value
            if memo is not None:
                memo[key] = val
            stack.pop()
            if not stack:
                return val
            continue
        val = _MISSING if memo is None else memo.get(want, _MISSING)
        if val is _MISSING:
            stack.append((want, step(want)))
            val = None


# ---------------------------------------------------------------------------
# Term bank: interned word-level DAG with normalizing constructors
#
# Sorts: positive int = BitVec width (bool is width 1); the tuple
# ("arr", 64, 8) = the byte-memory array sort.

ARR = ("arr", 64, 8)


class TermBank:
    def __init__(self):
        self.op = []
        self.w = []
        self.args = []
        self.intern = {}

    def _mk(self, op, w, args):
        key = (op, w, args)
        t = self.intern.get(key)
        if t is None:
            t = len(self.op)
            self.op.append(op)
            self.w.append(w)
            self.args.append(args)
            self.intern[key] = t
        return t

    # -- leaves ------------------------------------------------------------

    def const(self, w, v):
        return self._mk("const", w, (v & ((1 << w) - 1),))

    def var(self, name, w):
        return self._mk("var", w, (name,))

    def is_const(self, t):
        return self.op[t] == "const"

    def cval(self, t):
        return self.args[t][0]

    def true(self):
        return self.const(1, 1)

    def false(self):
        return self.const(1, 0)

    # -- linear combinations ------------------------------------------------
    # lin args = (c, ((atom, coeff), ...)) with atoms sorted, coeff != 0

    def to_lin(self, t):
        if self.op[t] == "const":
            return self.cval(t), ()
        if self.op[t] == "lin":
            return self.args[t]
        return 0, ((t, 1),)

    def from_lin(self, w, c, pairs):
        m = (1 << w) - 1
        c &= m
        if not pairs:
            return self.const(w, c)
        if c == 0 and len(pairs) == 1 and pairs[0][1] == 1:
            return pairs[0][0]
        return self._mk("lin", w, (c, tuple(pairs)))

    def lin_merge(self, w, parts):
        """parts: iterable of (term, multiplier).  Returns Σ mult·term."""
        m = (1 << w) - 1
        c = 0
        acc = {}
        for t, mult in parts:
            mult &= m
            if mult == 0:
                continue
            tc, pairs = self.to_lin(t)
            c = (c + tc * mult) & m
            for a, k in pairs:
                nk = (acc.get(a, 0) + k * mult) & m
                if nk:
                    acc[a] = nk
                else:
                    acc.pop(a, None)
        return self.from_lin(w, c, tuple(sorted(acc.items())))

    def add(self, a, b):
        return self.lin_merge(self.w[a], [(a, 1), (b, 1)])

    def sub(self, a, b):
        return self.lin_merge(self.w[a], [(a, 1), (b, -1)])

    def neg(self, a):
        return self.lin_merge(self.w[a], [(a, -1)])

    # -- other operators -----------------------------------------------------

    def mul(self, a, b):
        w = self.w[a]
        if self.is_const(a) and self.is_const(b):
            return self.const(w, self.cval(a) * self.cval(b))
        if self.is_const(a):
            return self.lin_merge(w, [(b, self.cval(a))])
        if self.is_const(b):
            return self.lin_merge(w, [(a, self.cval(b))])
        if a > b:
            a, b = b, a
        return self._mk("mul", w, (a, b))

    def udiv(self, a, b):
        w = self.w[a]
        if self.is_const(b):
            bv = self.cval(b)
            if bv == 0:
                return self.const(w, (1 << w) - 1)
            if self.is_const(a):
                return self.const(w, self.cval(a) // bv)
            if bv == 1:
                return a
        return self._mk("udiv", w, (a, b))

    def _bitwise(self, op, w, terms):
        # flatten, fold constants, sort, dedupe (xor: cancel pairs)
        cval = 0 if op in ("orb", "xorb") else (1 << w) - 1
        flat = []
        stack = list(terms)
        while stack:
            t = stack.pop()
            if self.op[t] == op:
                stack.extend(self.args[t])
            elif self.is_const(t):
                v = self.cval(t)
                cval = cval | v if op == "orb" else (cval ^ v if op == "xorb" else cval & v)
            else:
                flat.append(t)
        if op == "xorb":
            counts = {}
            for t in flat:
                counts[t] = counts.get(t, 0) ^ 1
            flat = [t for t, k in counts.items() if k]
        else:
            flat = list(set(flat))
        flat.sort()
        full = (1 << w) - 1
        if op == "andb" and cval == 0:
            return self.const(w, 0)
        if op == "orb" and cval == full:
            return self.const(w, full)
        if not flat:
            return self.const(w, cval)
        if op == "xorb" and cval == full and len(flat) == 1:
            return self.notb(flat[0])
        neutral = (cval == full) if op == "andb" else (cval == 0)
        parts = flat if neutral else [self.const(w, cval)] + flat
        if len(parts) == 1:
            return parts[0]
        if op == "andb" and w == 1:
            for t in parts:
                if self.notb(t) in parts:
                    return self.false()
        if op == "orb" and w == 1:
            for t in parts:
                if self.notb(t) in parts:
                    return self.true()
        return self._mk(op, w, tuple(parts))

    def andb(self, *ts):
        return self._bitwise("andb", self.w[ts[0]], ts)

    def orb(self, *ts):
        return self._bitwise("orb", self.w[ts[0]], ts)

    def xorb(self, *ts):
        return self._bitwise("xorb", self.w[ts[0]], ts)

    def notb(self, a):
        w = self.w[a]
        if self.is_const(a):
            return self.const(w, ~self.cval(a))
        if self.op[a] == "notb":
            return self.args[a][0]
        return self._mk("notb", w, (a,))

    def shl(self, a, b):
        w = self.w[a]
        if self.is_const(b):
            sh = self.cval(b)
            if sh >= w:
                return self.const(w, 0)
            return self.lin_merge(w, [(a, 1 << sh)])
        return self._mk("shl", w, (a, b))

    def lshr(self, a, b):
        w = self.w[a]
        if self.is_const(b):
            sh = self.cval(b)
            if sh >= w:
                return self.const(w, 0)
            if sh == 0:
                return a
            if self.is_const(a):
                return self.const(w, self.cval(a) >> sh)
            return self.zext(self.extract(a, w - 1, sh), sh)
        return self._mk("lshr", w, (a, b))

    def ashr(self, a, b):
        w = self.w[a]
        if self.is_const(b) and self.is_const(a):
            sh = min(self.cval(b), w)
            v = self.cval(a)
            s = v - (1 << w) if v >> (w - 1) else v
            return self.const(w, (s >> sh) & ((1 << w) - 1))
        if self.is_const(b) and self.cval(b) == 0:
            return a
        return self._mk("ashr", w, (a, b))

    def extract(self, a, hi, lo):
        # descends through extract / concat / sext operands in a loop, so a
        # deep concat chain costs no recursion
        w = hi - lo + 1
        while True:
            if lo == 0 and w == self.w[a]:
                return a
            op = self.op[a]
            if op == "const":
                return self.const(w, self.cval(a) >> lo)
            if op == "extract":
                a, bhi, blo = self.args[a]
                hi, lo = blo + hi, blo + lo
                continue
            if op == "concat":
                hi_t, lo_t = self.args[a]
                lw = self.w[lo_t]
                if hi < lw:
                    a = lo_t
                    continue
                if lo >= lw:
                    a, hi, lo = hi_t, hi - lw, lo - lw
                    continue
            elif op == "sext" and hi < self.w[self.args[a][0]]:
                a = self.args[a][0]
                continue
            elif op == "lin" and lo == 0:
                # low bits of a sum depend only on low bits of the addends
                c, pairs = self.args[a]
                return self.lin_merge(w, [(self.extract(p, hi, 0), k) for p, k in pairs]
                                      + [(self.const(w, c), 1)])
            return self._mk("extract", w, (a, hi, lo))

    def concat(self, hi_t, lo_t):
        w = self.w[hi_t] + self.w[lo_t]
        if self.is_const(hi_t) and self.is_const(lo_t):
            return self.const(w, (self.cval(hi_t) << self.w[lo_t]) | self.cval(lo_t))
        return self._mk("concat", w, (hi_t, lo_t))

    def zext(self, a, n):
        if n == 0:
            return a
        return self.concat(self.const(n, 0), a)

    def sext(self, a, n):
        if n == 0:
            return a
        w = self.w[a] + n
        if self.is_const(a):
            v = self.cval(a)
            aw = self.w[a]
            s = v - (1 << aw) if v >> (aw - 1) else v
            return self.const(w, s & ((1 << w) - 1))
        return self._mk("sext", w, (a, n))

    def eq(self, a, b):
        if self.w[a] == ARR or self.w[b] == ARR:
            raise SmtInputError("array equality is not supported")
        if a == b:
            return self.true()
        w = self.w[a]
        if self.is_const(a) and self.is_const(b):
            return self.true() if self.cval(a) == self.cval(b) else self.false()
        if w == 1:
            if self.is_const(a):
                return b if self.cval(a) else self.notb(b)
            if self.is_const(b):
                return a if self.cval(b) else self.notb(a)
            return self.notb(self.xorb(a, b))
        # cancel shared linear structure: a = b  <=>  a - b = 0.  Only commit
        # to the difference form when something actually cancelled, else keep
        # the original operands so bit-level sharing survives blasting.
        dc, dpairs = self.to_lin(self.sub(a, b))
        if not dpairs:
            return self.true() if dc == 0 else self.false()
        na = len(self.to_lin(a)[1])
        nb = len(self.to_lin(b)[1])
        if len(dpairs) < na + nb:
            # canonicalize sign so that x - y = k and y - x = -k coincide
            if dpairs[0][1] >> (w - 1):
                dc, dpairs = -dc, tuple((t, -k & ((1 << w) - 1)) for t, k in dpairs)
            a = self.from_lin(w, 0, dpairs)
            b = self.const(w, -dc)
        key = tuple(sorted((a, b)))
        return self._mk("eq", 1, key)

    def ult(self, a, b):
        if a == b:
            return self.false()
        if self.is_const(a) and self.is_const(b):
            return self.true() if self.cval(a) < self.cval(b) else self.false()
        if self.is_const(b) and self.cval(b) == 0:
            return self.false()
        if self.is_const(a) and self.cval(a) == (1 << self.w[a]) - 1:
            return self.false()
        return self._mk("ult", 1, (a, b))

    def ule(self, a, b):
        if a == b:
            return self.true()
        if self.is_const(a) and self.is_const(b):
            return self.true() if self.cval(a) <= self.cval(b) else self.false()
        if self.is_const(a) and self.cval(a) == 0:
            return self.true()
        if self.is_const(b) and self.cval(b) == (1 << self.w[b]) - 1:
            return self.true()
        return self.notb(self.ult(b, a))

    def _signed(self, t):
        v = self.cval(t)
        w = self.w[t]
        return v - (1 << w) if v >> (w - 1) else v

    def slt(self, a, b):
        if a == b:
            return self.false()
        if self.is_const(a) and self.is_const(b):
            return self.true() if self._signed(a) < self._signed(b) else self.false()
        return self._mk("slt", 1, (a, b))

    def ite(self, c, a, b):
        if self.w[a] == ARR:
            raise SmtInputError("ite over arrays is not supported")
        if self.is_const(c):
            return a if self.cval(c) else b
        if a == b:
            return a
        if self.w[a] == 1 and self.is_const(a) and self.is_const(b):
            # (ite c true false) -> c ; (ite c false true) -> not c
            return c if self.cval(a) else self.notb(c)
        return self._mk("ite", self.w[a], (c, a, b))

    def select(self, arr, idx):
        node = arr
        while self.op[node] == "store":
            base, i, v = self.args[node]
            d = self.sub(i, idx)
            if not self.is_const(d):
                # undecidable aliasing stays for the bit-level mux chain
                return self._mk("select", 8, (node, idx))
            if self.cval(d) == 0:
                return v
            node = base
        return self._mk("select", 8, (node, idx))

    def store(self, arr, idx, val):
        if self.op[arr] == "store":
            base, i, v = self.args[arr]
            if i == idx:
                return self._mk("store", ARR, (base, idx, val))
        return self._mk("store", ARR, (arr, idx, val))

    # -- generic children access --------------------------------------------

    def children(self, t):
        opn = self.op[t]
        a = self.args[t]
        if opn in ("const", "var"):
            return ()
        if opn == "lin":
            return tuple(p for p, _ in a[1])
        if opn in ("extract", "sext"):
            return (a[0],)
        return a

    def rebuild(self, t, kids):
        opn = self.op[t]
        a = self.args[t]
        if opn == "lin":
            c = a[0]
            return self.lin_merge(self.w[t], list(zip(kids, (k for _, k in a[1])))
                                  + [(self.const(self.w[t], c), 1)])
        if opn == "extract":
            return self.extract(kids[0], a[1], a[2])
        if opn == "sext":
            return self.sext(kids[0], a[1])
        if opn == "concat":
            return self.concat(*kids)
        if opn in ("andb", "orb", "xorb"):
            return self._bitwise(opn, self.w[t], kids)
        fn = {"mul": self.mul, "udiv": self.udiv,
              "shl": self.shl, "lshr": self.lshr, "ashr": self.ashr,
              "notb": self.notb, "eq": self.eq, "ult": self.ult, "slt": self.slt,
              "ite": self.ite, "select": self.select, "store": self.store}[opn]
        return fn(*kids)

    def substitute(self, t, mapping, memo):
        """`t` with the terms of `mapping` replaced; one `memo` dict shares
        work between calls with the same mapping."""
        memo.update(mapping)
        return drive(self._substituted, t, memo)

    def _substituted(self, t):
        kids = self.children(t)
        new = []
        for k in kids:
            new.append((yield k))
        new = tuple(new)
        return t if new == kids else self.rebuild(t, new)

    def free_vars(self, t):
        out = set()
        memo = set()
        stack = [t]
        while stack:
            x = stack.pop()
            if x in memo:
                continue
            memo.add(x)
            if self.op[x] == "var":
                out.add(x)
            else:
                stack.extend(self.children(x))
        return out


# ---------------------------------------------------------------------------
# Parsing the fragment `backend.encode` writes
#
# A parsed term is a pair (bank term, sort).  A sort is a bit-vector width,
# ARR, or BOOL: the sort of `=`, `distinct` and the comparisons, which only
# `ite` and `assert` take.  In the bank a Bool is a width-1 term.

BOOL = "Bool"
# operator -> (TermBank method, operand count); the operands share one width,
# which is also the result's except for the comparisons
BV_OPS = {"bvnot": ("notb", 1), "bvneg": ("neg", 1), "bvadd": ("add", 2),
          "bvsub": ("sub", 2), "bvmul": ("mul", 2), "bvudiv": ("udiv", 2),
          "bvand": ("andb", 2), "bvor": ("orb", 2), "bvxor": ("xorb", 2),
          "bvshl": ("shl", 2), "bvlshr": ("lshr", 2), "bvashr": ("ashr", 2),
          "bvult": ("ult", 2), "bvule": ("ule", 2), "bvslt": ("slt", 2)}
BV_CMPS = ("bvult", "bvule", "bvslt")
OTHER_OPS = ("=", "distinct", "ite", "select", "store", "concat")
INDEXED_OPS = ("extract", "zero_extend", "sign_extend")


def _show(s):
    """`s` for an error message, with nested lists elided."""
    if isinstance(s, str):
        return s
    return "(" + " ".join(x if isinstance(x, str) else "(...)" for x in s) + ")"


def _numeral(tok, least=0):
    if isinstance(tok, str) and tok.isascii() and tok.isdigit():
        try:
            n = int(tok)
        except ValueError:  # past the interpreter's limit on decimal digits
            raise SmtInputError(f"numeral of {len(tok)} digits is too long") from None
        if n >= least:
            return n
    raise SmtInputError(f"expected a numeral >= {least}, got {_show(tok)}")


class Script:
    def __init__(self):
        self.tb = TermBank()
        self.decls = []      # (name, sort) in declaration order
        self.env = {}        # name -> (term, sort), declared or defined
        self.asserts = []
        self.checked = None

    def parse_sort(self, s):
        if s == ["Array", ["_", "BitVec", "64"], ["_", "BitVec", "8"]]:
            return ARR
        if isinstance(s, list) and len(s) == 3 and s[:2] == ["_", "BitVec"]:
            return _numeral(s[2], 1)
        raise SmtInputError(f"unsupported sort {_show(s)}")

    def _term(self, s):
        """`drive` step: the (term, sort) of s-expression `s`."""
        tb = self.tb
        if isinstance(s, str):
            if s in self.env:
                return self.env[s]
            if s.startswith("#b") and len(s) > 2 and not s[2:].strip("01"):
                return tb.const(len(s) - 2, int(s[2:], 2)), len(s) - 2
            raise SmtInputError(f"unknown symbol {s}")
        if not s:
            raise SmtInputError("empty term ()")
        head = s[0]
        if head == "_":
            if len(s) == 3 and isinstance(s[1], str) and s[1].startswith("bv"):
                w = _numeral(s[2], 1)
                return tb.const(w, _numeral(s[1][2:])), w
            raise SmtInputError(f"unsupported constant {_show(s)}")
        if isinstance(head, list):
            # ((_ extract i j) x), ((_ zero_extend k) x), ((_ sign_extend k) x)
            op = head[1] if len(head) > 1 and head[0] == "_" else None
            if op not in INDEXED_OPS:
                raise SmtInputError(f"unsupported operator {_show(head)}")
        elif head not in BV_OPS and head not in OTHER_OPS:
            raise SmtInputError(f"unsupported operator {head}")
        kids = []
        for x in s[1:]:
            kids.append((yield x))
        terms = [t for t, _ in kids]
        sorts = [srt for _, srt in kids]
        n = len(kids)
        same = n > 0 and sorts.count(sorts[0]) == n
        bv = same and isinstance(sorts[0], int)  # bit-vectors of one width
        if isinstance(head, list):
            if op == "extract" and len(head) == 4 and n == 1 and bv:
                hi, lo = _numeral(head[2]), _numeral(head[3])
                if sorts[0] > hi >= lo:
                    return tb.extract(terms[0], hi, lo), hi - lo + 1
            elif op != "extract" and len(head) == 3 and n == 1 and bv:
                k = _numeral(head[2])
                ext = tb.zext if op == "zero_extend" else tb.sext
                return ext(terms[0], k), sorts[0] + k
        elif head in BV_OPS:
            method, arity = BV_OPS[head]
            if n == arity and bv:
                return getattr(tb, method)(*terms), BOOL if head in BV_CMPS else sorts[0]
        elif head == "=" or head == "distinct":
            if n == 2 and same and sorts[0] != BOOL:
                t = tb.eq(*terms)
                return (t if head == "=" else tb.notb(t)), BOOL
        elif head == "ite":
            if n == 3 and sorts[0] == BOOL and sorts[1] == sorts[2] != BOOL:
                return tb.ite(*terms), sorts[1]
        elif head == "select":
            if sorts == [ARR, 64]:
                return tb.select(*terms), 8
        elif head == "store":
            if sorts == [ARR, 64, 8]:
                return tb.store(*terms), ARR
        elif head == "concat":
            if n >= 2 and all(isinstance(srt, int) for srt in sorts):
                out = terms[0]
                for t in terms[1:]:
                    out = tb.concat(out, t)
                return out, sum(sorts)
        raise SmtInputError(f"wrong indices, operand count or operand sorts for {_show(head)}")

    def run_command(self, s, out):
        head, args = (s[0], s[1:]) if isinstance(s, list) and s else (s, [])
        if head == "set-logic" and len(args) == 1:
            return
        if head == "declare-const" and len(args) == 2:
            name, sort = self._new_name(args[0]), self.parse_sort(args[1])
            self.decls.append((name, sort))
            self.env[name] = self.tb.var(name, sort), sort
            return
        if head == "define-fun" and len(args) == 4 and args[1] == []:
            name, sort = self._new_name(args[0]), self.parse_sort(args[2])
            t, got = drive(self._term, args[3])
            if got != sort:
                raise SmtInputError(f"the body of {name} has the wrong sort")
            self.env[name] = t, sort
            return
        if head == "assert" and len(args) == 1:
            t, sort = drive(self._term, args[0])
            if sort != BOOL:
                raise SmtInputError("assert takes a Bool term")
            self.asserts.append(t)
            return
        if head == "check-sat" and not args:
            self.checked = solve(self)
            out.write(self.checked[0] + "\n")
            return
        if head == "get-model" and not args:
            if self.checked and self.checked[0] == "sat":
                out.write(format_model(self, self.checked[1]) + "\n")
            else:
                out.write("(error \"model is not available\")\n")
            return
        raise SmtInputError(f"unsupported or malformed command {_show(s)}")

    def _new_name(self, name):
        if not isinstance(name, str) or name in self.env:
            raise SmtInputError(f"{_show(name)} is not a fresh symbol")
        return name


# ---------------------------------------------------------------------------
# Equality elimination (solve-eqs)

def flatten_conjuncts(tb, terms):
    out = []
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if tb.op[t] == "andb" and tb.w[t] == 1:
            stack.extend(reversed(tb.args[t]))
        else:
            out.append(t)
    return out


def solve_eqs(tb, conjuncts):
    """Eliminate conjuncts of the form var = term (var not in term).
    Returns (remaining conjuncts, bindings list in elimination order)."""
    bindings = []
    work = list(conjuncts)
    changed = True
    rounds = 0
    while changed and rounds < 50:
        changed = False
        rounds += 1
        for i, t in enumerate(work):
            if tb.op[t] != "eq":
                continue
            a, b = tb.args[t]
            cand = None
            if tb.op[a] == "var" and a not in tb.free_vars(b):
                cand = (a, b)
            elif tb.op[b] == "var" and b not in tb.free_vars(a):
                cand = (b, a)
            elif tb.op[a] == "lin":
                # x + rest = b with unit coefficient -> x = b - rest
                c, pairs = tb.args[a]
                w = tb.w[a]
                for atom, k in pairs:
                    if tb.op[atom] == "var" and k in (1, (1 << w) - 1):
                        rest = tb.lin_merge(w, [(p, kk) for p, kk in pairs if p != atom]
                                            + [(tb.const(w, c), 1)])
                        rhs = tb.sub(b, rest) if k == 1 else tb.sub(rest, b)
                        if atom not in tb.free_vars(rhs):
                            cand = (atom, rhs)
                            break
            if cand is None:
                continue
            var_t, val_t = cand
            mapping = {var_t: val_t}
            memo = {}
            nxt = []
            for j, u in enumerate(work):
                if j == i:
                    continue
                nxt.append(tb.substitute(u, mapping, memo))
            bindings.append((var_t, val_t))
            work = flatten_conjuncts(tb, nxt)
            changed = True
            break
    return work, bindings


# ---------------------------------------------------------------------------
# Bit-blasting to CNF (AIG-style gates with structural hashing)

TRUE_LIT = 1  # literal 1 is constant true, -1 constant false


class Blaster:
    def __init__(self, tb):
        self.tb = tb
        self.nvars = 1  # var 1 reserved for the constant
        self.and_memo = {}
        self.xor_memo = {}
        self.gates = []  # (kind, out, a, b)
        self.bits_memo = {}
        self.sel_bytes = {}   # select term -> [8 lits]
        self.sel_by_base = {}  # base var term -> list of (idx term, byte lits)
        self.extra_clauses = []

    def new_lit(self):
        self.nvars += 1
        return self.nvars

    def gand(self, a, b):
        if a == -TRUE_LIT or b == -TRUE_LIT or a == -b:
            return -TRUE_LIT
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT or a == b:
            return a
        key = (a, b) if a < b else (b, a)
        g = self.and_memo.get(key)
        if g is None:
            g = self.new_lit()
            self.and_memo[key] = g
            self.gates.append(("and", g, key[0], key[1]))
        return g

    def gor(self, a, b):
        return -self.gand(-a, -b)

    def gxor(self, a, b):
        neg = False
        if a < 0:
            a, neg = -a, not neg
        if b < 0:
            b, neg = -b, not neg
        if a == TRUE_LIT:  # 1 ^ x = ~x
            return -b if not neg else b
        if b == TRUE_LIT:
            return -a if not neg else a
        if a == b:
            return -TRUE_LIT if not neg else TRUE_LIT
        key = (a, b) if a < b else (b, a)
        g = self.xor_memo.get(key)
        if g is None:
            g = self.new_lit()
            self.xor_memo[key] = g
            self.gates.append(("xor", g, key[0], key[1]))
        return g if not neg else -g

    def gmux(self, c, a, b):
        # c ? a : b
        if c == TRUE_LIT:
            return a
        if c == -TRUE_LIT:
            return b
        if a == b:
            return a
        return self.gor(self.gand(c, a), self.gand(-c, b))

    def const_bits(self, w, v):
        return [TRUE_LIT if (v >> i) & 1 else -TRUE_LIT for i in range(w)]

    def add_bits(self, xs, ys, carry=-TRUE_LIT):
        out = []
        c = carry
        for a, b in zip(xs, ys):
            s = self.gxor(self.gxor(a, b), c)
            c = self.gor(self.gand(a, b), self.gand(c, self.gxor(a, b)))
            out.append(s)
        return out

    def mul_const_bits(self, xs, coeff, w):
        acc = self.const_bits(w, 0)
        neg = coeff >> (w - 1)
        if neg:
            coeff = (1 << w) - coeff
        shift = 0
        while coeff:
            if coeff & 1:
                shifted = self.const_bits(w, 0)[:shift] + xs[:w - shift]
                acc = self.add_bits(acc, shifted)
            coeff >>= 1
            shift += 1
        if neg:
            acc = self.add_bits([-x for x in acc], self.const_bits(w, 1))
        return acc

    def mul_bits(self, xs, ys, w):
        acc = self.const_bits(w, 0)
        for i in range(w):
            row = [self.gand(ys[i], x) for x in xs[:w - i]]
            acc = self.add_bits(acc, self.const_bits(w, 0)[:i] + row)
        return acc

    def ult_bits(self, xs, ys):
        # x < y unsigned: borrow out of x - y
        lt = -TRUE_LIT
        for a, b in zip(xs, ys):
            eqb = -self.gxor(a, b)
            lt = self.gor(self.gand(-a, b), self.gand(eqb, lt))
        return lt

    def eq_bits(self, xs, ys):
        out = TRUE_LIT
        for a, b in zip(xs, ys):
            out = self.gand(out, -self.gxor(a, b))
        return out

    def shift_bits(self, xs, ys, kind, w):
        # barrel shifter; amounts >= w give 0 (or sign fill for ashr)
        fill = xs[-1] if kind == "ashr" else -TRUE_LIT
        out = list(xs)
        nstages = max(1, (w - 1).bit_length())
        for s in range(nstages):
            sh = 1 << s
            cond = ys[s] if s < len(ys) else -TRUE_LIT
            nxt = []
            for i in range(w):
                if kind == "shl":
                    src = out[i - sh] if i >= sh else -TRUE_LIT
                else:
                    src = out[i + sh] if i + sh < w else fill
                nxt.append(self.gmux(cond, src, out[i]))
            out = nxt
        # any high amount bit set -> full shift-out
        high = -TRUE_LIT
        for j in range(nstages, len(ys)):
            high = self.gor(high, ys[j])
        return [self.gmux(high, fill, b) for b in out]

    def udiv_bits(self, xs, ys, w):
        # restoring long division at w+1 bits (the intermediate remainder
        # 2r+b can exceed w bits when the divisor's top bit is set);
        # q = all ones when y = 0
        q = [None] * w
        ys1 = list(ys) + [-TRUE_LIT]
        r = self.const_bits(w + 1, 0)
        for i in range(w - 1, -1, -1):
            r = [xs[i]] + r[:w]
            ge = -self.ult_bits(r, ys1)
            sub = self.add_bits(r, [-y for y in ys1], TRUE_LIT)
            r = [self.gmux(ge, s, o) for s, o in zip(sub, r)]
            q[i] = ge
        yzero = self.eq_bits(ys, self.const_bits(w, 0))
        return [self.gmux(yzero, TRUE_LIT, b) for b in q]

    def bits(self, t):
        return drive(self._bits, t, self.bits_memo)

    def _bits(self, t):
        """`drive` step: the literals of term `t`, least significant first;
        `(yield u)` gives those of sub-term `u`."""
        tb = self.tb
        opn = tb.op[t]
        w = tb.w[t]
        if opn == "const":
            return self.const_bits(w, tb.cval(t))
        if opn == "var":
            self.nvars += w
            return list(range(self.nvars - w + 1, self.nvars + 1))
        if opn == "lin":
            c, pairs = tb.args[t]
            acc = self.const_bits(w, c)
            for atom, coeff in pairs:
                xs = yield atom
                if coeff == 1:
                    acc = self.add_bits(acc, xs)
                else:
                    acc = self.add_bits(acc, self.mul_const_bits(xs, coeff, w))
            return acc
        if opn == "mul":
            a, b = tb.args[t]
            return self.mul_bits((yield a), (yield b), w)
        if opn == "udiv":
            a, b = tb.args[t]
            return self.udiv_bits((yield a), (yield b), w)
        if opn in ("andb", "orb", "xorb"):
            gate = {"andb": self.gand, "orb": self.gor, "xorb": self.gxor}[opn]
            acc = self.const_bits(w, (1 << w) - 1 if opn == "andb" else 0)
            for a in tb.args[t]:
                xs = yield a
                acc = [gate(p, x) for p, x in zip(acc, xs)]
            return acc
        if opn == "notb":
            return [-x for x in (yield tb.args[t][0])]
        if opn in ("shl", "lshr", "ashr"):
            a, b = tb.args[t]
            return self.shift_bits((yield a), (yield b), opn, w)
        if opn == "extract":
            a, hi, lo = tb.args[t]
            return (yield a)[lo:hi + 1]
        if opn == "sext":
            a, n = tb.args[t]
            xs = yield a
            return xs + [xs[-1]] * n
        if opn == "concat":
            hi_t, lo_t = tb.args[t]
            return (yield lo_t) + (yield hi_t)
        if opn in ("eq", "ult"):
            a, b = tb.args[t]
            compare = self.eq_bits if opn == "eq" else self.ult_bits
            return [compare((yield a), (yield b))]
        if opn == "slt":
            a, b = tb.args[t]
            xs, ys = list((yield a)), list((yield b))
            xs[-1], ys[-1] = -xs[-1], -ys[-1]  # bias trick
            return [self.ult_bits(xs, ys)]
        if opn == "ite":
            c, a, b = tb.args[t]
            cl = (yield c)[0]
            xs, ys = (yield a), (yield b)
            return [self.gmux(cl, x, y) for x, y in zip(xs, ys)]
        if opn == "select":
            return (yield from self.select_bits(t))
        raise SmtInputError(f"cannot blast op {opn!r}")

    def select_bits(self, t):
        """Part of the `_bits` step for a select term."""
        tb = self.tb
        arr, idx = tb.args[t]
        idx_bits = yield idx
        node = arr
        muxes = []  # (cond lit, value bits) from outermost store inward
        while tb.op[node] == "store":
            base, i, v = tb.args[node]
            muxes.append((self.eq_bits(idx_bits, (yield i)), (yield v)))
            node = base
        result = self.base_select(node, idx, idx_bits)  # an array variable
        for cond, val in reversed(muxes):
            result = [self.gmux(cond, x, y) for x, y in zip(val, result)]
        return result

    def base_select(self, base_var, idx, idx_bits):
        key = (base_var, idx)
        got = self.sel_bytes.get(key)
        if got is not None:
            return got
        byte = [self.new_lit() for _ in range(8)]
        self.sel_bytes[key] = byte
        peers = self.sel_by_base.setdefault(base_var, [])
        for other_idx, other_byte, other_bits in peers:
            same = self.eq_bits(idx_bits, other_bits)
            agree = self.eq_bits(byte, other_byte)
            # same -> agree
            self.extra_clauses.append([-same, agree])
        peers.append((idx, byte, idx_bits))
        return byte

    # -- CNF ----------------------------------------------------------------

    def to_cnf(self, root_lits):
        clauses = []
        for kind, g, a, b in self.gates:
            if kind == "and":
                clauses.append([-g, a])
                clauses.append([-g, b])
                clauses.append([g, -a, -b])
            else:  # xor
                clauses.append([-g, a, b])
                clauses.append([-g, -a, -b])
                clauses.append([g, a, -b])
                clauses.append([g, -a, b])
        clauses.append([TRUE_LIT])
        for lit in root_lits:
            clauses.append([lit])
        clauses.extend(self.extra_clauses)
        return clauses


# ---------------------------------------------------------------------------
# CDCL SAT solver

class Sat:
    MAX_CONFLICTS = 5_000_000  # the search gives up (unknown) after this many

    def __init__(self, nvars):
        self.nvars = nvars
        self.clauses = []
        self.watches = [[] for _ in range(2 * nvars + 2)]
        self.assign = [0] * (nvars + 1)  # 0 unknown, 1 true, -1 false
        self.level = [0] * (nvars + 1)
        self.reason = [None] * (nvars + 1)
        self.trail = []
        self.lim = []
        self.activity = [0.0] * (nvars + 1)
        self.var_inc = 1.0
        self.ok = True
        self.phase = [False] * (nvars + 1)
        import heapq
        self._heapq = heapq
        self.heap = [(0.0, v) for v in range(1, nvars + 1)]
        heapq.heapify(self.heap)

    def _widx(self, lit):
        return 2 * abs(lit) + (1 if lit < 0 else 0)

    def value(self, lit):
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits):
        lits = sorted(set(lits), key=abs)
        out = []
        for l in lits:
            if -l in out:
                return  # tautology
            out.append(l)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self.enqueue(out[0], None):
                self.ok = False
            return
        self.clauses.append(out)
        ci = len(self.clauses) - 1
        self.watches[self._widx(out[0])].append(ci)
        self.watches[self._widx(out[1])].append(ci)

    def enqueue(self, lit, reason):
        v = self.value(lit)
        if v == 1:
            return True
        if v == -1:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.lim)
        self.reason[var] = reason
        self.trail.append(lit)
        self.phase[var] = lit > 0
        return True

    def propagate(self):
        qi = getattr(self, "_qhead", 0)
        while qi < len(self.trail):
            lit = self.trail[qi]
            qi += 1
            falsified = -lit
            wl = self.watches[self._widx(falsified)]
            i = 0
            while i < len(wl):
                ci = wl[i]
                cl = self.clauses[ci]
                if cl[0] == falsified:
                    cl[0], cl[1] = cl[1], cl[0]
                if self.value(cl[0]) == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if self.value(cl[k]) != -1:
                        cl[1], cl[k] = cl[k], cl[1]
                        self.watches[self._widx(cl[1])].append(ci)
                        wl[i] = wl[-1]
                        wl.pop()
                        moved = True
                        break
                if moved:
                    continue
                if not self.enqueue(cl[0], ci):
                    self._qhead = len(self.trail)
                    return ci
                i += 1
        self._qhead = qi
        return None

    def bump(self, var):
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self.heap = [(-self.activity[v], v) for v in range(1, self.nvars + 1)
                         if self.assign[v] == 0]
            self._heapq.heapify(self.heap)
        else:
            self._heapq.heappush(self.heap, (-self.activity[var], var))

    def analyze(self, confl):
        learnt = []
        seen = [False] * (self.nvars + 1)
        counter = 0
        lit = None
        idx = len(self.trail) - 1
        cur_level = len(self.lim)
        first = True
        while True:
            cl = self.clauses[confl] if isinstance(confl, int) else confl
            for l in cl[(0 if first else 1):]:
                var = abs(l)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self.bump(var)
                    if self.level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(l)
            while True:
                lit = self.trail[idx]
                idx -= 1
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            confl = self.reason[abs(lit)]
            first = False
        learnt.insert(0, -lit)
        if len(learnt) == 1:
            bt = 0
        else:
            bt = max(self.level[abs(l)] for l in learnt[1:])
        return learnt, bt

    def backtrack(self, level):
        while self.trail and self.level[abs(self.trail[-1])] > level:
            lit = self.trail.pop()
            var = abs(lit)
            self.assign[var] = 0
            self.reason[var] = None
            self._heapq.heappush(self.heap, (-self.activity[var], var))
        del self.lim[level:]
        self._qhead = len(self.trail)

    def pick(self):
        # lazy-deletion max-activity heap; stale entries are simply skipped
        heap = self.heap
        pop = self._heapq.heappop
        while heap:
            _, var = pop(heap)
            if self.assign[var] == 0:
                return var
        return 0

    def solve(self):
        if not self.ok:
            return False
        self._qhead = 0
        if self.propagate() is not None:
            return False
        conflicts = 0
        while True:
            confl = self.propagate()
            if confl is not None:
                conflicts += 1
                if conflicts > self.MAX_CONFLICTS:
                    return None
                if not self.lim:
                    return False
                learnt, bt = self.analyze(confl)
                self.backtrack(bt)
                if len(learnt) == 1:
                    if not self.enqueue(learnt[0], None):
                        return False
                else:
                    self.clauses.append(learnt)
                    ci = len(self.clauses) - 1
                    # put a literal of the backtrack level in second position
                    for k in range(1, len(learnt)):
                        if self.level[abs(learnt[k])] == bt:
                            learnt[1], learnt[k] = learnt[k], learnt[1]
                            break
                    self.watches[self._widx(learnt[0])].append(ci)
                    self.watches[self._widx(learnt[1])].append(ci)
                    self.enqueue(learnt[0], ci)
                self.var_inc *= 1.05
            else:
                var = self.pick()
                if var == 0:
                    return True
                self.lim.append(len(self.trail))
                self.enqueue(var if self.phase[var] else -var, None)


# ---------------------------------------------------------------------------
# Solving pipeline

def solve(script: Script):
    tb = script.tb
    conjuncts = flatten_conjuncts(tb, script.asserts)
    conjuncts, bindings = solve_eqs(tb, conjuncts)

    residual = []
    for t in conjuncts:
        if tb.is_const(t):
            if tb.cval(t) == 0:
                return ("unsat", None)
        else:
            residual.append(t)

    bl = Blaster(tb)
    roots = [bl.bits(t)[0] for t in residual]
    sat = Sat(bl.nvars)
    for cl in bl.to_cnf(roots):
        sat.add_clause(cl)
    res = sat.solve()
    if res is None:
        return ("unknown", None)
    if not res:
        return ("unsat", None)

    def word(lits):  # read back a blasted value
        return sum((sat.value(l) == 1) << i for i, l in enumerate(lits))

    env = {t: word(lits) for t, lits in bl.bits_memo.items() if tb.op[t] == "var"}
    sel_vals = {key: word(byte) for key, byte in bl.sel_bytes.items()}
    return ("sat", finish_model(script, env, sel_vals, bindings))


class Evaluator:
    """Concrete evaluation of terms under a variable assignment; array
    contents come from the solver's base-select values."""

    def __init__(self, tb, env, sel_vals):
        self.tb = tb
        self.env = env
        self.sel_vals = sel_vals
        self.memo = {}

    def __call__(self, t):
        return drive(self._ev, t, self.memo)

    def _ev(self, t):
        """`drive` step: the value of term `t`; `(yield u)` gives the value
        of sub-term `u`.  Only the taken arm of an ite is evaluated."""
        tb = self.tb
        opn = tb.op[t]
        w = tb.w[t]
        mask = (1 << w) - 1 if w != ARR else None
        if opn == "const":
            return tb.cval(t)
        if opn == "var":
            if w == ARR:
                out = {}
                for (base, idx), val in self.sel_vals.items():
                    if base == t:
                        out[(yield idx)] = val
                return out
            return self.env.get(t, 0)
        if opn == "lin":
            c, pairs = tb.args[t]
            v = c
            for a, k in pairs:
                v += (yield a) * k
            return v & mask
        if opn == "mul":
            a, b = tb.args[t]
            return ((yield a) * (yield b)) & mask
        if opn == "udiv":
            a, b = tb.args[t]
            av, bv = (yield a), (yield b)
            return av // bv if bv else mask
        if opn in ("andb", "orb", "xorb"):
            v = mask if opn == "andb" else 0
            for a in tb.args[t]:
                x = yield a
                v = v & x if opn == "andb" else (v | x if opn == "orb" else v ^ x)
            return v
        if opn == "notb":
            return ~(yield tb.args[t][0]) & mask
        if opn in ("shl", "lshr", "ashr"):
            a, b = tb.args[t]
            av, bv = (yield a), (yield b)
            if opn == "shl":
                return (av << bv) & mask if bv < w else 0
            if opn == "lshr":
                return av >> bv if bv < w else 0
            s = av - (1 << w) if av >> (w - 1) else av
            return (s >> min(bv, w - 1)) & mask
        if opn == "extract":
            a, hi, lo = tb.args[t]
            return ((yield a) >> lo) & ((1 << (hi - lo + 1)) - 1)
        if opn == "sext":
            a, n = tb.args[t]
            aw = tb.w[a]
            v = yield a
            s = v - (1 << aw) if v >> (aw - 1) else v
            return s & mask
        if opn == "concat":
            hi_t, lo_t = tb.args[t]
            return ((yield hi_t) << tb.w[lo_t]) | (yield lo_t)
        if opn in ("eq", "ult"):
            a, b = tb.args[t]
            av, bv = (yield a), (yield b)
            return int(av == bv if opn == "eq" else av < bv)
        if opn == "slt":
            a, b = tb.args[t]
            aw = tb.w[tb.args[t][0]]
            sa, sb = (yield a), (yield b)
            sa = sa - (1 << aw) if sa >> (aw - 1) else sa
            sb = sb - (1 << aw) if sb >> (aw - 1) else sb
            return 1 if sa < sb else 0
        if opn == "ite":
            c, a, b = tb.args[t]
            return (yield a) if (yield c) else (yield b)
        if opn == "select":
            arr, idx = tb.args[t]
            iv = yield idx
            node = arr
            while tb.op[node] == "store":
                base, i, v = tb.args[node]
                if (yield i) == iv:
                    return (yield v)
                node = base
            got = self.sel_vals.get((node, idx))
            if got is not None:
                return got
            # fall back to matching by concrete address
            for (b2, i2), val in self.sel_vals.items():
                if b2 == node and (yield i2) == iv:
                    return val
            return 0
        raise SmtInputError(f"cannot evaluate {opn!r}")


def finish_model(script, env, sel_vals, bindings):
    """The value of every declared constant, by name."""
    ev = Evaluator(script.tb, env, sel_vals)
    for var_t, val_t in reversed(bindings):
        env[var_t] = ev.memo[var_t] = ev(val_t)
    return {name: ev(script.env[name][0]) for name, _ in script.decls}


def _fmt_bv(w, v):
    if w % 4 == 0:
        return f"#x{v:0{w // 4}x}"
    return "#b" + format(v, f"0{w}b")


def format_model(script, model):
    lines = ["("]
    for name, sort in script.decls:
        val = model[name]
        if sort == ARR:
            arr = "((as const (Array (_ BitVec 64) (_ BitVec 8))) #x00)"
            for a in sorted(val):
                arr = f"(store {arr} {_fmt_bv(64, a)} {_fmt_bv(8, val[a])})"
            lines.append(f"  (define-fun {name} () (Array (_ BitVec 64) (_ BitVec 8)) {arr})")
        else:
            lines.append(f"  (define-fun {name} () (_ BitVec {sort}) {_fmt_bv(sort, val)})")
    lines.append(")")
    return "\n".join(lines)


# ---------------------------------------------------------------------------

def run_script(text, out):
    script = Script()
    for form in read_sexprs(text):
        script.run_command(form, out)


def main(argv=None):
    """Answer one script, from the file named in `argv` or from stdin; or,
    with `--serve`, answer length-framed scripts on stdin until EOF."""
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--serve"]:
        import io
        inp, out = sys.stdin.buffer, sys.stdout.buffer
        # a request is "<n>\n" and an n-byte script; a reply is "<n> <m>\n",
        # the n bytes the script printed and the m bytes of the stderr a
        # one-shot run would write: the unknown's reason, or a traceback
        while head := inp.readline():
            answer, reason = io.StringIO(), ""
            try:
                run_script(inp.read(int(head)).decode(), answer)
            except SmtInputError as e:
                answer.write("unknown\n")
                reason = f"minismt: {e}\n"
            except Exception:  # no verdict: the client reports the traceback
                import traceback
                reason = traceback.format_exc()
            reply = answer.getvalue().encode(), reason.encode()
            out.write(b"%d %d\n%s%s" % (*map(len, reply), *reply))
            out.flush()
        return 0
    if argv:
        with open(argv[0]) as f:
            text = f.read()
    else:
        text = sys.stdin.read()
    try:
        run_script(text, sys.stdout)
    except SmtInputError as e:
        sys.stdout.write("unknown\n")
        sys.stderr.write(f"minismt: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
