"""SMTLIB2 encoding of verification obligations and solver subprocess driving.

Each obligation is one QF_ABV script: it goes to the solver, and the
sat/unsat/unknown verdict (plus a model, when sat) comes back. The bundled
`bircheck-smt` solver is used when no external solver is configured. It
starts as `python -S -c <stub>`, a one-line stub that imports minismt, so the
child loads the solver from cached bytecode, and with `--serve` it answers
length-framed scripts until its stdin closes. One such child serves every
check of a run: it starts at the run's first check and is killed and reaped
when the run ends (`SolverConfig.session`, which `contracts.verify` and
`contracts.execute` open) or at a timeout, after which the next check starts
a fresh one. Any other command line -- an SMTLIB2 solver supporting
QF_ABV (e.g. z3) via `SolverConfig(argv=["z3", "-in"])` or the
BIRCHECK_SOLVER environment variable -- runs as one process per check, fed
the script on stdin.

Abbreviation definitions stay in the engine: `_terms_of` closes an obligation
over the definitions it reaches, so scripts and models name free symbols only.

Every sat model is re-evaluated through the concrete expression evaluator
before being trusted; a model that does not satisfy the asserted terms is a
hard error.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import selectors
import shlex
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

from .. import bir


class SmtError(Exception):
    pass


class UnsupportedTerm(SmtError):
    pass


class SolverCrash(SmtError):
    pass


class ModelParseError(SmtError):
    pass


class SolverModelUnsound(SmtError):
    """A sat model did not satisfy the asserted terms under concrete
    re-evaluation (zero tolerance; this is a soundness bug somewhere)."""


OBLIGATION_KINDS = ("feasibility", "entailment")

_stats = {"sat_models_checked": 0, "sat_model_failures": 0}
_stats_lock = threading.Lock()  # `check_many`'s pool threads count too


def _count(key):
    with _stats_lock:
        _stats[key] += 1


def model_check_stats():
    with _stats_lock:
        return dict(_stats)


@dataclass(frozen=True)
class Obligation:
    kind: str
    hypotheses: tuple      # of Imm1 SymExpr
    goal: object           # Imm1 SymExpr
    origin: str = ""
    defs: tuple = ()       # ((Sym, SymExpr), ...) abbreviation definitions, in order

    def __post_init__(self):
        if self.kind not in OBLIGATION_KINDS:
            raise ValueError(f"unknown obligation kind {self.kind!r}")


@dataclass(frozen=True)
class SolverVerdict:
    status: str            # "sat" | "unsat" | "unknown"
    model: dict | None = None  # symbol name -> int or {addr: byte}
    reason: str = ""

    @property
    def is_sat(self):
        return self.status == "sat"

    @property
    def is_unsat(self):
        return self.status == "unsat"


# A script run as __main__ is compiled from source on every start, so the
# bundled solver's child imports minismt instead. The import system keeps its
# bytecode in the standard __pycache__/ next to minismt.py: written atomically,
# checked against the source's mtime and size at every start, and when it
# cannot be written the child compiles, as a script would. The stub turns
# bytecode writing back on, which PYTHONDONTWRITEBYTECODE turns off. minismt
# imports only sys, so the child needs no importable bircheck (no
# PYTHONPATH), and -S skips site set-up. One round trip of a 3-line unsat
# script (2-core VM, median of 15): 49 ms as a script or through the stub
# without a cache, 18-19 ms through the stub with it, 11-17 ms for
# `python -S -c pass`.
_BUNDLED_ARGV = [sys.executable, "-S", "-c",
                 "import sys; sys.dont_write_bytecode = False; "
                 f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r}); "
                 "import minismt; sys.exit(minismt.main())"]


def default_solver_argv():
    """BIRCHECK_SOLVER's command line, else the bundled solver's, which
    answers the script on its stdin or in the file it is given."""
    env = os.environ.get("BIRCHECK_SOLVER")
    if env:
        return shlex.split(env)
    return list(_BUNDLED_ARGV)


@dataclass
class SolverConfig:
    argv: list = field(default_factory=default_solver_argv)
    timeout: float = 30.0          # seconds, finite; 0 answers unknown unasked
    dump_dir: str | None = None
    pool: ClassVar[int] = 4        # threads of `check_many`
    _dump_counter: int = field(default=0, init=False)
    # the bundled solver's child, shared by the checks of one run (`session`)
    _child: subprocess.Popen | None = field(default=None, init=False, compare=False,
                                            repr=False)
    _sessions: int = field(default=0, init=False, compare=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  compare=False, repr=False)

    def __post_init__(self):
        if self.timeout is None or not 0 <= self.timeout < math.inf:
            raise ValueError("solver timeout must be a finite number >= 0")
        head = self.argv[0] if self.argv else ""
        if shutil.which(head) is None:
            raise ValueError(f"solver executable {head!r} not found")

    def _reserve_dumps(self, n):
        """The first of `n` consecutive, not yet used dump file numbers."""
        self._dump_counter += n
        return self._dump_counter - n + 1

    @contextlib.contextmanager
    def session(self):
        """The scope of one run.  The bundled solver's checks inside it share
        one child, started at the first check; when the outermost scope exits,
        however it exits, the child is killed and reaped."""
        with self._lock:
            self._sessions += 1
        try:
            yield
        finally:
            with self._lock:
                self._sessions -= 1
                if not self._sessions:
                    self._stop()

    def _stop(self):
        """Kill the child, if there is one, and reap it; the caller holds
        `_lock`.  Between checks the child holds nothing but its interpreter,
        and SIGKILL spares the 2-3 ms its exit at stdin's EOF would take."""
        child, self._child = self._child, None
        if child is None:
            return
        if child.returncode is None:  # not reaped, so its pid still names its group
            os.killpg(child.pid, signal.SIGKILL)
        child.stdin.close()
        child.stdout.close()
        child.wait()

    def _ask(self, text):
        """(stdout, stderr) of the bundled solver for script `text`: one round
        trip to the session's child, which is started if there is none.

        The child runs `minismt.main(["--serve"])`: the request is the
        script's length in bytes, a newline and the script; the reply is the
        lengths of what the script printed and of its reason for an unknown
        (the one-shot solver's stderr), a newline, then both texts.  The
        timeout bounds the whole round trip, the write included; at the
        timeout, or at any other exception, the child is killed and reaped, so
        the next check starts a fresh one."""
        data = text.encode()
        request = memoryview(b"%d\n%s" % (len(data), data))
        reply = bytearray()
        size = None                # of the whole reply, once its header is in
        with self._lock:
            if self._child is None:
                self._child = subprocess.Popen(
                    [*self.argv, "--serve"], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    start_new_session=True)
                os.set_blocking(self._child.stdin.fileno(), False)
            child = self._child
            w, r = child.stdin.fileno(), child.stdout.fileno()
            deadline = time.monotonic() + self.timeout
            try:
                with selectors.DefaultSelector() as sel:
                    sel.register(w, selectors.EVENT_WRITE)
                    sel.register(r, selectors.EVENT_READ)
                    while size is None or len(reply) < size:
                        left = deadline - time.monotonic()
                        ready = {key.fd for key, _ in sel.select(left)} if left > 0 else ()
                        if not ready:
                            raise subprocess.TimeoutExpired(self.argv, self.timeout)
                        if w in ready:
                            try:
                                request = request[os.write(w, request):]
                            except BrokenPipeError:  # gone: its stdout's EOF tells
                                request = request[:0]
                            if not request:
                                sel.unregister(w)
                        if r in ready:
                            chunk = os.read(r, 1 << 16)
                            if not chunk:
                                self._stop()
                                raise SolverCrash(f"solver exited with status "
                                                  f"{child.returncode} before it answered")
                            reply += chunk
                        if size is None and b"\n" in reply:
                            head = bytes(reply[:reply.index(b"\n") + 1])
                            try:
                                n_out, n_err = map(int, head.split())
                            except ValueError:
                                raise SolverCrash(f"malformed solver reply {head[:200]!r}") \
                                    from None
                            size = len(head) + n_out + n_err
            except BaseException:
                self._stop()
                raise
        body = len(head) + n_out
        return reply[len(head):body].decode(), reply[body:].decode()


# ---------------------------------------------------------------------------
# Encoding

def _sort_of(ty):
    if ty is bir.Mem:
        return "(Array (_ BitVec 64) (_ BitVec 8))"
    return f"(_ BitVec {ty.width})"


def _terms_of(obl):
    """The terms asserted for this obligation, in assertion order, closed
    over its abbreviation definitions."""
    # entailment: hypotheses AND NOT goal; unsat => entailed
    goal = obl.goal if obl.kind == "feasibility" else bir.unop("not", obl.goal)
    return bir.inline_defs([*obl.hypotheses, goal], obl.defs)


def _declared_syms(terms):
    """The free symbols of `terms`, by name: term by term, each in
    `bir.collect_syms`'s right-to-left pre-order."""
    syms = {}
    for t in terms:
        bir.collect_syms(t, syms)
    return syms


def encode(obl: Obligation) -> str:
    """Render an obligation as an SMTLIB2 QF_ABV script ending in
    (check-sat)(get-model)."""
    asserted = _terms_of(obl)

    # share interior nodes referenced more than once via define-funs
    refs = {}
    stack = list(asserted)
    while stack:
        e = stack.pop()
        n = refs[id(e)] = refs.get(id(e), 0) + 1
        if n == 1:
            stack += e.kids

    emit = []          # define-fun lines, in dependency order
    names = itertools.count()  # .t0, .t1, ... for shared nodes
    rendered = {}      # id(node) -> text, one table for every root

    def rule(e, kv):
        text = _render(e, kv)
        for k in e.kids:
            # a node referenced once is read once: dropping its text keeps a
            # deep unshared chain at linear, not quadratic, memory
            if refs[id(k)] == 1:
                del rendered[id(k)]
        if refs[id(e)] > 1 and not isinstance(e, (bir.Const, bir.Sym)):
            name = f".t{next(names)}"
            emit.append(f"(define-fun {name} () {_sort_of(e.ty)} {text})")
            text = name
        return text

    lines = ["(set-logic QF_ABV)"]
    for s in _declared_syms(asserted).values():
        lines.append(f"(declare-const {s.name} {_sort_of(s.ty)})")
    for t in asserted:
        emit.append(f"(assert (= {bir.fold(t, rule, rendered)} #b1))")
    lines.extend(emit)
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


_SMT_OPS = {"plus": "bvadd", "minus": "bvsub", "mult": "bvmul", "udiv": "bvudiv",
            "and": "bvand", "or": "bvor", "xor": "bvxor", "shl": "bvshl",
            "lshr": "bvlshr", "ashr": "bvashr", "eq": "=", "ne": "distinct",
            "ult": "bvult", "ule": "bvule", "slt": "bvslt"}


def _render(e, kv):
    """SMTLIB2 text of node `e` over its children's texts `kv`."""
    if isinstance(e, bir.Const):
        return f"(_ bv{e.val} {e.ty.width})"
    if isinstance(e, bir.Sym):
        return e.name
    if isinstance(e, bir.Den):
        raise UnsupportedTerm(f"free program variable {e.var.name} in obligation")
    if isinstance(e, bir.UnOp):
        op = "bvnot" if e.op == "not" else "bvneg"
        return f"({op} {kv[0]})"
    if isinstance(e, bir.BinOp):
        return f"({_SMT_OPS[e.op]} {kv[0]} {kv[1]})"
    if isinstance(e, bir.BinPred):
        return f"(ite ({_SMT_OPS[e.op]} {kv[0]} {kv[1]}) #b1 #b0)"
    if isinstance(e, bir.Ite):
        return f"(ite (= {kv[0]} #b1) {kv[1]} {kv[2]})"
    if isinstance(e, bir.Cast):
        w0, w1 = e.a.ty.width, e.ty.width
        a, = kv
        if w0 == w1:
            return a
        if e.kind == "low":
            return f"((_ extract {w1 - 1} 0) {a})"
        ext = "zero_extend" if e.kind == "zext" else "sign_extend"
        return f"((_ {ext} {w1 - w0}) {a})"
    if isinstance(e, bir.Load):
        m, a = kv
        nbytes = e.width // 8
        sel = [f"(select {m} {_offset(a, k)})" for k in range(nbytes)]
        if nbytes == 1:
            return sel[0]
        return "(concat " + " ".join(reversed(sel)) + ")"
    if isinstance(e, bir.Store):
        m, a, v = kv
        nbytes = e.value.ty.width // 8
        out = m
        for k in range(nbytes):
            byte = f"((_ extract {8 * k + 7} {8 * k}) {v})" if nbytes > 1 else v
            out = f"(store {out} {_offset(a, k)} {byte})"
        return out
    raise UnsupportedTerm(repr(e))


def _offset(addr_text, k):
    if k == 0:
        return addr_text
    return f"(bvadd {addr_text} (_ bv{k} 64))"


# ---------------------------------------------------------------------------
# Model parsing

def _int(digits, base):
    try:
        return int(digits, base)
    except ValueError:
        raise ModelParseError(f"unparsable numeral {digits!r}") from None


def _parse_value(form):
    stores = []  # (index, value) forms of a store chain, outermost first
    while isinstance(form, list) and form and form[0] == "store":
        if len(form) != 4:
            raise ModelParseError(f"malformed store {form!r}")
        stores.append((form[2], form[3]))
        form = form[1]
    if stores:
        arr = _parse_value(form)
        if not isinstance(arr, dict):
            raise ModelParseError("store over non-array model value")
        arr = dict(arr)
        for idx, val in reversed(stores):
            idx, val = _parse_value(idx), _parse_value(val)
            if isinstance(idx, dict) or isinstance(val, dict):
                raise ModelParseError("store of a non-numeral model value")
            arr[idx] = val
        return arr
    if isinstance(form, str):
        if form.startswith("#x"):
            return _int(form[2:], 16)
        if form.startswith("#b"):
            return _int(form[2:], 2)
        if form == "true":
            return 1
        if form == "false":
            return 0
        raise ModelParseError(f"unparsable value {form!r}")
    if len(form) == 3 and form[0] == "_" and isinstance(form[1], str) and form[1].startswith("bv"):
        return _int(form[1][2:], 10)
    if len(form) == 2 and isinstance(form[0], list) and form[0][:2] == ["as", "const"]:
        default = _parse_value(form[1])
        if default != 0:
            raise ModelParseError("constant arrays with nonzero default unsupported")
        return {}
    raise ModelParseError(f"unparsable model value {form!r}")


def parse_model(text: str) -> dict:
    """Extract name -> value from solver get-model output; ModelParseError
    for anything malformed."""
    # imported here, not at the top: `python -m bircheck.smt.minismt` imports
    # this package first, and runpy would then load minismt a second time
    from .minismt import SmtInputError, read_sexprs
    try:
        forms = read_sexprs(text)
    except SmtInputError as e:
        raise ModelParseError(str(e)) from None
    entries = {}
    for form in forms:
        if not isinstance(form, list):
            continue
        items = form[1:] if form and form[0] == "model" else form
        for item in items:
            if isinstance(item, list) and item and item[0] == "define-fun":
                if len(item) != 5 or not isinstance(item[1], str):
                    raise ModelParseError(f"malformed define-fun {item!r}")
                entries[item[1]] = _parse_value(item[4])
    return entries


# ---------------------------------------------------------------------------
# Checking

def _extend_model(obl, model):
    """Interpretation of the obligation's free symbols: the model's values,
    with defaults for the ones it omits."""
    return {name: model.get(name, {} if s.ty is bir.Mem else 0)
            for name, s in _declared_syms(_terms_of(obl)).items()}


def _verify_model(obl, interp):
    for t in _terms_of(obl):
        if bir.eval_exp(t, {}, interp) != 1:
            raise SolverModelUnsound(
                f"model does not satisfy asserted term for {obl.origin or obl.kind}: "
                f"{bir.print_exp(t)}")


def _run_solver(argv, text, timeout):
    """(stdout, stderr) of `argv` fed `text`.  The solver runs in a session of
    its own, so a timeout or any other exception kills its whole process
    group, not only the direct child; leaving the `with` reaps the child."""
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            return proc.communicate(text, timeout=timeout)
        except BaseException:
            if proc.returncode is None:  # not reaped, so its pid still names its group
                os.killpg(proc.pid, signal.SIGKILL)
            raise


def check(obl: Obligation, cfg: SolverConfig | None = None, *,
          dump_no: int | None = None) -> SolverVerdict:
    """Run the obligation through the configured solver: the bundled solver
    answers in the session's child (a child of its own outside a session),
    any other solver in a process of its own.  `cfg.timeout` bounds the
    round trip; past it the verdict is `unknown` with reason `timeout`.  With
    a dump directory the script is saved as file number `dump_no` (default:
    the next free number)."""
    cfg = cfg or SolverConfig()
    text = encode(obl)
    if cfg.dump_dir:
        os.makedirs(cfg.dump_dir, exist_ok=True)
        if dump_no is None:
            dump_no = cfg._reserve_dumps(1)
        tag = "".join(ch if ch.isalnum() else "_" for ch in (obl.origin or "obl"))[:60]
        path = os.path.join(cfg.dump_dir, f"{dump_no:04d}_{obl.kind}_{tag}.smt2")
        with open(path, "w") as f:
            f.write(text)
    if cfg.timeout <= 0:
        return SolverVerdict("unknown", reason="timeout")
    try:
        if cfg.argv == _BUNDLED_ARGV:
            with cfg.session():
                out, err = cfg._ask(text)
        else:
            out, err = _run_solver(cfg.argv, text, cfg.timeout)
    except subprocess.TimeoutExpired:
        return SolverVerdict("unknown", reason="timeout")
    except OSError as e:
        raise SolverCrash(f"cannot run solver {cfg.argv!r}: {e}") from e
    first, _, rest = out.partition("\n")
    first = first.strip()
    if first == "unsat":
        return SolverVerdict("unsat")
    if first == "unknown":
        return SolverVerdict("unknown", reason=(err.strip() or "no reason given"))
    if first != "sat":
        raise SolverCrash(f"solver produced no verdict (stdout={out[:200]!r}, "
                          f"stderr={err[:200]!r})")
    model = parse_model(rest)
    interp = _extend_model(obl, model)
    _count("sat_models_checked")
    try:
        _verify_model(obl, interp)
    except SolverModelUnsound:
        _count("sat_model_failures")
        raise
    return SolverVerdict("sat", model=interp)


def check_many(obligations, cfg: SolverConfig | None = None):
    """Check independent obligations on `SolverConfig.pool` threads, each
    calling `check`, preserving input order in the result list.  The threads
    share one session, so the bundled solver's child answers them one at a
    time.  Dump files are numbered in input order, whichever thread finishes
    first."""
    cfg = cfg or SolverConfig()
    obls = list(obligations)
    if cfg.dump_dir:
        first = cfg._reserve_dumps(len(obls))
        dump_nos = range(first, first + len(obls))
    else:
        dump_nos = [None] * len(obls)
    with cfg.session(), ThreadPoolExecutor(max_workers=cfg.pool) as ex:
        return list(ex.map(lambda o, no: check(o, cfg, dump_no=no), obls, dump_nos))
