"""In-memory spans around bircheck's public entry points.

The tracer patches each traced function at the name its caller looks it up
through, so the program itself is unchanged:

- ``symexec.check``, ``symexec.check_many`` and ``contracts.check`` are
  bound by ``from .smt import ...`` and are patched in those modules;
- ``backend.check`` (called by ``check_many``'s pool threads), ``encode``,
  ``parse_model`` and the model re-evaluation helpers are module globals of
  ``smt.backend`` and are patched there;
- everything else is patched as a module attribute.

``check_many`` runs ``check`` on pool threads, whose own span stack is
empty; their spans are parented to the span that called ``check_many``
(``symexec.prune_infeasible``) and tagged with the batch they belong to.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

from bircheck import bir, contracts, disasm, isa, lifter, symexec
from bircheck.smt import backend


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    contract: str | None
    thread: str
    attrs: dict = field(default_factory=dict)
    self_s: float = 0.0

    @property
    def dur(self):
        return self.end - self.start

    def to_json(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "contract": self.contract,
                "thread": self.thread, "self": self.self_s, "attrs": self.attrs}


def _check_attrs(args, out):
    return {"kind": args[0].kind, "status": out.status}


def _check_many_attrs(args, out):
    return {"obligations": len(out)}


def _prune_attrs(args, out):
    return {"in": len(args[0]), "out": len(out)}


def _encode_attrs(args, out):
    return {"bytes": len(out)}


# (module, attribute, span name, attrs(args, result) or None, starts a pool batch)
PATCHES = (
    (disasm, "parse_objdump", "disasm.parse_objdump", None, False),
    (disasm, "make_slice", "disasm.make_slice", None, False),
    (lifter, "lift_slice", "lifter.lift_slice", None, False),
    (contracts, "parse_contract", "contracts.parse_contract", None, False),
    (contracts, "to_bir", "contracts.to_bir", None, False),
    (contracts, "verify", "contracts.verify", None, False),
    (contracts, "replay_counterexample", "contracts.replay_counterexample", None, False),
    (contracts, "check", "smt.check", _check_attrs, False),
    (isa, "run", "isa.run", None, False),
    (symexec, "execute", "symexec.execute", None, False),
    (symexec, "step_block", "symexec.step_block", None, False),
    (symexec, "prune_infeasible", "symexec.prune_infeasible", _prune_attrs, False),
    (symexec, "simplify", "symexec.simplify", None, False),
    (symexec, "abbreviate", "symexec.abbreviate", None, False),
    (symexec, "simplify_exp", "symexec.simplify_exp", None, False),
    (symexec, "check", "smt.check", _check_attrs, False),
    (symexec, "check_many", "smt.check_many", _check_many_attrs, True),
    (backend, "check", "smt.check", _check_attrs, False),
    (backend, "encode", "smt.encode", _encode_attrs, False),
    (backend, "parse_model", "smt.parse_model", None, False),
    (backend, "_extend_model", "smt.model_check", None, False),
    (backend, "_verify_model", "smt.model_check", None, False),
    (bir, "subst", "bir.subst", None, False),
    (bir, "eval_exp", "bir.eval_exp", None, False),
)


class Tracer:
    """Records spans while installed; `contract` names the contract the
    current calls belong to."""

    def __init__(self):
        self.spans = []
        self.obligations = []      # every Obligation checked, for node counts
        self.contract = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = None
        self._batch = None
        self._saved = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, fn, attrs_of, pool_root):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            on_pool = not stack
            parent = stack[-1] if stack else tracer._pool_parent
            sid = next(tracer._ids)
            batch = tracer._batch
            if pool_root:
                tracer._pool_parent, tracer._batch = parent, sid
            if name == "smt.check":
                tracer.obligations.append(args[0])
            stack.append(sid)
            out = None
            err = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                err = type(e).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if pool_root:
                    tracer._pool_parent = tracer._batch = None
                attrs = {}
                if err is not None:
                    attrs["error"] = err
                elif attrs_of is not None:
                    attrs = attrs_of(args, out)
                if batch is not None and name == "smt.check":
                    attrs["batch"] = batch
                tracer.spans.append(Span(sid, name, start, end, parent, tracer.contract,
                                         "pool" if on_pool and parent is not None
                                         else "main", attrs))

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, attr, name, attrs_of, pool_root in PATCHES:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, attrs_of, pool_root))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def compute_self_times(spans):
    """Self time: duration minus the union of the child spans' intervals
    (children on pool threads overlap, so their union counts once)."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        s.self_s = s.dur - covered


def write_spans(path, record, spans):
    with open(path, "w") as f:
        f.write(json.dumps({"record": record}) + "\n")
        for s in spans:
            f.write(json.dumps(s.to_json()) + "\n")
