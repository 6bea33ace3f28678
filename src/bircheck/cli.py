"""Command-line front end for the lift / symex / verify pipeline.

Exit codes: 0 verified (or success), 1 refuted (or simulation failure),
2 input/usage error, 3 unknown (budget or solver limits), 4 solver error
(crash, unparsable output, a model that fails re-evaluation, an unencodable
term) or internal error (any other unexpected exception, reported as
"error: internal: <type>: <message>").

verify, symex and bench share the engine flags; their defaults are the
EngineConfig / SolverConfig field defaults, and both classes validate them:
  --solver CMD          solver command line (default: the bundled bircheck-smt,
                        or BIRCHECK_SOLVER when set)
  --timeout S           per-obligation solver timeout in seconds (30.0)
  --unroll N            loop unroll bound (0)
  --dump-smt DIR        dump every obligation as a .smt2 file (off)
verify and symex also take --format text|json (text); bench prints its
table only, and its --unroll has no default: given, it applies to every
program; left out, each built-in fixture keeps its own bound (isqrt's 5).
The step, state and abbreviation budgets and the solver pool size are
constants: symexec.MAX_STEPS, MAX_STATES, ABBREV_THRESHOLD and
SolverConfig.pool.
"""

from __future__ import annotations

import argparse
import csv
import json
import shlex
import sys
import time

from . import bir, disasm, isa, lifter, symexec, contracts
from .corpus import fixture, fixture_names, fixture_config
from .lifter import LiftError
from .smt import SmtError, SolverConfig
from .symexec import EngineConfig

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_ERROR = 4


def add_engine_flags(p):
    p.add_argument("--solver", help="solver command line (default: bundled bircheck-smt; "
                                    "also via BIRCHECK_SOLVER)")
    p.add_argument("--timeout", type=float, default=SolverConfig.timeout,
                   help="per-obligation solver timeout in seconds")
    p.add_argument("--unroll", type=int, default=EngineConfig.unroll,
                   help="loop unroll bound")
    p.add_argument("--dump-smt", dest="smt_dump", metavar="DIR",
                   help="dump every obligation as a .smt2 file")


def engine_config(args) -> EngineConfig:
    return EngineConfig(unroll=args.unroll)


def solver_config(args) -> SolverConfig:
    argv = {"argv": shlex.split(args.solver)} if args.solver else {}
    return SolverConfig(timeout=args.timeout, dump_dir=args.smt_dump, **argv)


def _load_slice(path, entry, ends):
    with open(path) as f:
        text = f.read()
    unit = disasm.parse_objdump(text)
    return disasm.make_slice(unit, entry, ends)


def _parse_addr(s):
    return int(s, 0)


def cmd_lift(args):
    sl = _load_slice(args.disasm, _parse_addr(args.entry),
                     {_parse_addr(e) for e in args.end})
    prog, _ = lifter.lift_slice(sl)
    print(bir.print_program(prog))
    return EXIT_OK


def cmd_verify(args):
    engine, solver = engine_config(args), solver_config(args)
    with open(args.contract) as f:
        rc = contracts.parse_contract(f.read())
    sl = _load_slice(args.disasm, rc.entry, rc.endpoints)
    prog, _ = lifter.lift_slice(sl)
    bc = contracts.to_bir(rc, prog)
    res = contracts.verify(bc, engine, solver)
    if args.fmt == "json":
        print(json.dumps(res.to_json_dict(), indent=2))
    else:
        print(f"{rc.name}: {res.verdict}")
        if res.reason:
            print(f"  reason: {res.reason}")
        if res.counterexample is not None:
            items = ", ".join(f"{k}=0x{v:x}" if isinstance(v, int) else f"{k}=<mem>"
                              for k, v in sorted(res.counterexample.items()))
            print(f"  counterexample: {items or '{} (no free inputs)'}")
            stop, holds = contracts.replay_counterexample(rc, sl, res.counterexample)
            print(f"  replay: stops at 0x{stop:x}, post holds: {holds}")
        print(f"  leaves: {res.leaf_count}, obligations: {len(res.obligations)}, "
              f"wall: {res.times.get('total', 0):.3f}s "
              f"(symex {res.times.get('symex', 0):.3f}s, "
              f"solver {res.times.get('solver', 0):.3f}s)")
    return {"verified": EXIT_OK, "refuted": EXIT_REFUTED,
            "unknown": EXIT_UNKNOWN}[res.verdict]


def cmd_symex(args):
    engine, solver = engine_config(args), solver_config(args)
    if args.contract:
        with open(args.contract) as f:
            rc = contracts.parse_contract(f.read())
    elif args.entry and args.end:
        rc = contracts.trivial_contract(_parse_addr(args.entry),
                                        {_parse_addr(e) for e in args.end})
    else:
        print("symex needs --entry/--end or --contract", file=sys.stderr)
        return EXIT_INPUT
    sl = _load_slice(args.disasm, rc.entry, rc.endpoints)
    prog, _ = lifter.lift_slice(sl)
    try:
        st = contracts.execute(contracts.to_bir(rc, prog), engine, solver)
    except symexec.EngineError as e:
        print(f"symbolic execution failed: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    print(symexec.structure_to_json(st) if args.fmt == "json"
          else symexec.structure_to_text(st))
    return EXIT_OK


def cmd_check_sim(args):
    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    reports = lifter.simulation_sweep(args.trials, args.seed)
    by_kind = {}
    for r in reports:
        by_kind.setdefault(r.kind, []).append(r)
    failed = 0
    for kind in isa.ALL_KINDS:
        reps = by_kind.get(kind, [])
        trials = sum(r.trials for r in reps)
        bad = [r for r in reps if not r.passed]
        status = "pass" if not bad else "FAIL"
        failed += len(bad)
        print(f"{kind:8s} {trials:6d} trials  {status}")
        for r in bad:
            f = r.failures[0]
            print(f"  counterexample (trial {f['trial']}): {sorted(f['fields'])}")
    print(f"{len(isa.ALL_KINDS)} instruction kinds, "
          f"{'all pass' if not failed else f'{failed} FAILING reports'}")
    return EXIT_OK if not failed else EXIT_REFUTED


def _bench_targets(args):
    if args.corpus_dir:
        import os
        names = sorted(n[:-4] for n in os.listdir(args.corpus_dir)
                       if n.endswith(".dis"))
        for name in names:
            with open(os.path.join(args.corpus_dir, name + ".dis")) as f:
                dis = f.read()
            ctr_path = os.path.join(args.corpus_dir, name + ".ctr")
            rc = None
            if os.path.exists(ctr_path):
                with open(ctr_path) as f:
                    rc = contracts.parse_contract(f.read())
            yield name, dis, rc
    else:
        for name in fixture_names():
            if name == "loopy":
                continue
            dis, rc = fixture(name)
            yield name, dis, rc


def cmd_bench(args):
    solver = solver_config(args)
    engine = None if args.unroll is None else engine_config(args)
    rows = []
    for name, dis, rc in _bench_targets(args):
        unit = disasm.parse_objdump(dis)
        n_instr = sum(len(instrs) for _, instrs in unit.sections)
        if rc is None:
            instrs = list(unit.all_instrs())
            if not instrs:
                raise disasm.DisasmError(f"{name}.dis has no instructions")
            rc = contracts.trivial_contract(instrs[0].address, {instrs[-1].address})
        sl = disasm.make_slice(unit, rc.entry, rc.endpoints)
        prog, _ = lifter.lift_slice(sl)
        config = engine or (EngineConfig() if args.corpus_dir else fixture_config(name))
        bc = contracts.to_bir(rc, prog)
        t0 = time.perf_counter()
        try:
            st = contracts.execute(bc, config, solver)
            dt = time.perf_counter() - t0
            rows.append({"name": name, "instrs": n_instr, "leaves": len(st.leaves),
                         "seconds": round(dt, 4)})
        except symexec.EngineError as e:
            rows.append({"name": name, "instrs": n_instr, "leaves": 0,
                         "seconds": float("nan"), "error": str(e)})
    rows.sort(key=lambda r: r["instrs"])
    print(f"{'program':18s} {'#instr':>7s} {'leaves':>7s} {'time':>9s}")
    for r in rows:
        result = (f"error: {r['error']}" if "error" in r else
                  f"{r['leaves']:7d} {r['seconds']:8.3f}s")
        print(f"{r['name']:18s} {r['instrs']:7d} {result}")
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=["name", "instrs", "leaves", "seconds",
                                              "error"])
            w.writeheader()
            w.writerows(rows)
        print(f"csv written to {args.csv}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="bircheck",
                                description="Lift RV64 disassembly to an IR and "
                                            "check binary contracts symbolically.")
    sub = p.add_subparsers(dest="cmd", required=True)

    lp = sub.add_parser("lift", help="lift a disassembly slice and print the IR")
    lp.add_argument("disasm")
    lp.add_argument("--entry", required=True)
    lp.add_argument("--end", action="append", required=True)
    lp.set_defaults(fn=cmd_lift)

    vp = sub.add_parser("verify", help="verify a contract against a disassembly")
    vp.add_argument("disasm")
    vp.add_argument("contract")
    add_engine_flags(vp)
    vp.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    vp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("symex", help="symbolically execute and dump the structure")
    sp.add_argument("disasm")
    sp.add_argument("--entry")
    sp.add_argument("--end", action="append")
    sp.add_argument("--contract", help="take entry/endpoints/pre from a contract file")
    add_engine_flags(sp)
    sp.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_symex)

    cp = sub.add_parser("check-sim", help="differential lifting test over all "
                                          "supported instruction kinds")
    cp.add_argument("--trials", type=int, default=1000, help="trials per kind")
    cp.add_argument("--seed", type=int, default=20240901)
    cp.set_defaults(fn=cmd_check_sim)

    bp = sub.add_parser("bench", help="symbolic-execution timing table over the corpus")
    bp.add_argument("corpus_dir", nargs="?", help="directory of .dis/.ctr pairs "
                                                  "(default: built-in corpus)")
    bp.add_argument("--csv", help="also write the table as CSV")
    add_engine_flags(bp)
    bp.set_defaults(fn=cmd_bench, unroll=None)  # None: each fixture's own bound
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (disasm.DisasmError, LiftError, contracts.ContractError,
            isa.UnsupportedInstr, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SmtError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # a bug, not a verdict: never exit 1 ("refuted")
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
