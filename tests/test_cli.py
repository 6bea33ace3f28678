import csv
import json
import os
import signal
import sys
import time
from pathlib import Path

import pytest

from bircheck import cli, contracts, symexec
from bircheck.cli import main
from bircheck.corpus import asm, fixture
from bircheck.smt import SolverConfig, backend
from bircheck.symexec import EngineConfig

from conftest import chain_program


def _fixture_files(tmp_path, name):
    """Paths of a corpus fixture's listing and contract, written to `tmp_path`."""
    dis, rc = fixture(name)
    d, c = tmp_path / f"{name}.dis", tmp_path / f"{name}.ctr"
    d.write_text(dis)
    c.write_text(contracts.print_contract(rc))
    return str(d), str(c)


@pytest.fixture
def incr_files(tmp_path):
    return _fixture_files(tmp_path, "incr")


def test_lift_prints_block_serialization(incr_files, capsys):
    d, _ = incr_files
    rc = main(["lift", d, "--entry", "0x10488", "--end", "0x1048c"])
    out = capsys.readouterr().out
    assert rc == 0
    assert '(block 0x10488 "00150513 (addi a0,a0,1)"' in out
    assert "(assign x10 (+ (den x10) (const64 0x1)))" in out
    assert "(jmp 0x1048c)" in out


def test_lift_bad_hex_exits_2_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.dis"
    bad.write_text("Disassembly of section .text:\n"
                   "   10488:\t00150513          \taddi\ta0,a0,1\n"
                   "   1048c:\tzzzz8067          \tret\n")
    rc = main(["lift", str(bad), "--entry", "0x10488", "--end", "0x10490"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 3" in err


def test_lift_unsupported_instruction_exits_2_with_address(tmp_path, capsys):
    bad = tmp_path / "float.dis"
    bad.write_text("Disassembly of section .text:\n"
                   "   10488:\t00150513          \taddi\ta0,a0,1\n"
                   "   1048c:\t00052007          \tflw\tft0,0(a0)\n")
    rc = main(["lift", str(bad), "--entry", "0x10488", "--end", "0x10490"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "0x1048c" in err


def test_verify_exit_codes(incr_files, tmp_path, capsys):
    d, c = incr_files
    assert main(["verify", d, c]) == 0
    out = capsys.readouterr().out
    assert "verified" in out

    mutant = tmp_path / "mutant.ctr"
    mutant.write_text(open(c).read().replace("pre_x10 + 1", "pre_x10 + 2"))
    assert main(["verify", d, str(mutant)]) == 1
    out = capsys.readouterr().out
    assert "refuted" in out and "pre_x10" in out and "replay" in out


def test_verify_unknown_exit_3(tmp_path, capsys):
    dis, rc_obj = fixture("loopy")
    from bircheck.contracts import print_contract
    d = tmp_path / "loopy.dis"
    d.write_text(dis)
    c = tmp_path / "loopy.ctr"
    c.write_text(print_contract(rc_obj))
    assert main(["verify", str(d), str(c), "--unroll", "0"]) == 3


def test_verify_json_schema(incr_files, capsys):
    d, c = incr_files
    assert main(["verify", d, c, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "bircheck-report/1"
    assert set(doc) == {"schema", "verdict", "endpoint", "counterexample",
                        "reason", "leaves", "obligations", "times"}
    assert doc["verdict"] == "verified"
    assert doc["leaves"] == 1


def test_symex_dumps_structure(incr_files, capsys):
    d, c = incr_files
    assert main(["symex", d, "--contract", c, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "bircheck-structure/1"
    assert len(doc["leaves"]) == 1


def test_symex_with_explicit_bounds(incr_files, capsys):
    d, _ = incr_files
    assert main(["symex", d, "--entry", "0x10488", "--end", "0x1048c"]) == 0
    out = capsys.readouterr().out
    assert "leaves: 1" in out and "0x1048c" in out


def test_symex_without_bounds_is_usage_error(incr_files, capsys):
    d, _ = incr_files
    assert main(["symex", d]) == 2


def test_check_sim_zero_trials_rejected(capsys):
    assert main(["check-sim", "--trials", "0"]) == 2


def test_check_sim_small_run(capsys):
    assert main(["check-sim", "--trials", "8"]) == 0
    out = capsys.readouterr().out
    assert "all pass" in out


def test_bench_emits_table_and_csv_roundtrip(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    assert main(["bench", "--csv", str(out_csv)]) == 0
    table = capsys.readouterr().out
    for name in ("incr", "mod2", "isqrt", "swap"):
        assert name in table
    with open(out_csv) as f:
        rows = list(csv.DictReader(f))
    by_name = {r["name"]: r for r in rows}
    assert int(by_name["motor"]["instrs"]) == 120
    # csv parses back to the same values as the table source
    for r in rows:
        assert float(r["seconds"]) >= 0.0
        assert int(r["leaves"]) >= 1


def test_bench_engine_flags_override_fixture_settings(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    for unroll in ("1", "0"):  # 0 too, the value verify and symex default to
        assert main(["bench", "--unroll", unroll, "--csv", str(out_csv)]) == 0
        with open(out_csv) as f:
            by_name = {r["name"]: r for r in csv.DictReader(f)}
        # isqrt's own bound is 5
        assert f"revisited beyond unroll bound {unroll}" in by_name["isqrt"]["error"]
        assert by_name["incr"]["error"] == ""  # no loop: the bound does not matter


def test_bench_prints_why_a_program_failed(capsys):
    assert main(["bench", "--unroll", "0"]) == 0
    row, = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("isqrt ")]
    assert "revisited beyond unroll bound 0" in row and "nan" not in row


def test_bench_external_corpus_dir(tmp_path, capsys):
    dis, rc = fixture("incr")
    from bircheck.contracts import print_contract
    (tmp_path / "only.dis").write_text(dis)
    (tmp_path / "only.ctr").write_text(print_contract(rc))
    assert main(["bench", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "only" in out


def test_bench_listing_without_instructions_exits_2(tmp_path, capsys):
    (tmp_path / "empty.dis").write_text("")
    assert main(["bench", str(tmp_path)]) == 2
    assert "error: empty.dis has no instructions" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["verify", "/nonexistent.dis", "/nonexistent.ctr"]) == 2


def test_bad_solver_path_exits_2(incr_files, capsys):
    d, c = incr_files
    assert main(["verify", d, c, "--solver", "no-such-solver-binary"]) == 2


def test_solver_error_exits_4(incr_files, capsys):
    d, c = incr_files
    assert main(["verify", d, c, "--solver", "cat"]) == 4
    assert "error: SolverCrash" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    "((define-fun |pre_x10 () (_ BitVec 64) #x0000000000000000))",
    "((define-fun pre_x10 () (_ BitVec 64) (_ bvzz 64)))",
    "((define-fun pre_x10 () (_ BitVec 64) #xZZ))",
    "((define-fun pre_x10))"])
def test_malformed_model_exits_4(incr_files, tmp_path, capsys, model):
    # a solver that answers sat with a model bircheck cannot read is a solver
    # error (exit 4), not an input error (exit 2)
    d, c = incr_files
    fake = tmp_path / "fake_solver.py"
    fake.write_text(f"import sys\nsys.stdin.read()\nprint('sat')\nprint({model!r})\n")
    assert main(["verify", d, c, "--solver", f"{sys.executable} {fake}"]) == 4
    assert "error: ModelParseError" in capsys.readouterr().err


def test_negative_unroll_exits_2(incr_files, capsys):
    d, c = incr_files
    assert main(["verify", d, c, "--unroll", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,dest,default", [
    ("--timeout", "timeout", SolverConfig.timeout),
    ("--dump-smt", "smt_dump", SolverConfig.dump_dir),
    ("--unroll", "unroll", EngineConfig.unroll)])
def test_flag_defaults_are_the_config_defaults(flag, dest, default):
    for argv in (["verify", "a.dis", "a.ctr"], ["symex", "a.dis"], ["bench"]):
        # bench leaves --unroll unset, so each fixture keeps its own bound
        want = None if argv == ["bench"] and dest == "unroll" else default
        assert getattr(cli.build_parser().parse_args(argv), dest) == want
    # the module docstring quotes the same default
    line = next(l for l in cli.__doc__.splitlines() if l.strip().startswith(flag + " "))
    assert line.rstrip().endswith(f"({'off' if default is None else default})")


def test_engine_constants_are_not_flags(capsys):
    for flag in ("--max-states", "--max-steps", "--abbrev-threshold", "--pool"):
        for argv in (["verify", "a.dis", "a.ctr"], ["symex", "a.dis"], ["bench"]):
            with pytest.raises(SystemExit) as e:
                main(argv + [flag, "1"])
            assert e.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_has_no_format_flag(capsys):
    # bench prints only its table, so it rejects --format rather than ignore it
    with pytest.raises(SystemExit) as e:
        main(["bench", "--format", "json"])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_internal_error_exits_4(incr_files, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.contracts, "verify", broken)
    d, c = incr_files
    assert main(["verify", d, c]) == 4
    assert "error: internal: RuntimeError: boom" in capsys.readouterr().err


def test_deeply_parenthesised_contract_exits_2(incr_files, tmp_path, capsys):
    d, _ = incr_files
    deep = tmp_path / "deep.ctr"
    deep.write_text("program incr\nentry 0x10488\nendpoints 0x1048c\nparams pre_x10\n"
                    "pre:\n  gpr[10] == " + "(" * 500 + "pre_x10" + ")" * 500 + "\n")
    assert main(["verify", d, str(deep)]) == 2
    err = capsys.readouterr().err
    assert "nest deeper than" in err and "Traceback" not in err


def test_post_at_non_endpoint_exits_2(incr_files, tmp_path, capsys):
    # a mistyped post address used to be ignored: the real endpoint got the
    # trivial postcondition and this wrong post "verified"
    d, c = incr_files
    typo = tmp_path / "typo.ctr"
    typo.write_text(open(c).read().replace("post 0x1048c:", "post 0x1048d:")
                    .replace("pre_x10 + 1", "pre_x10 + 2"))
    assert main(["verify", d, str(typo)]) == 2
    assert "postcondition at 0x1048d is not an endpoint" in capsys.readouterr().err


def test_forbidden_endpoint_exits_2(incr_files, tmp_path, capsys):
    # it used to run: refuted at the forbidden label, although the post holds there
    d, c = incr_files
    both = tmp_path / "both.ctr"
    both.write_text(open(c).read().replace("endpoints 0x1048c",
                                           "endpoints 0x1048c\nforbidden 0x1048c"))
    assert main(["verify", d, str(both)]) == 2
    assert "0x1048c is both an endpoint and forbidden" in capsys.readouterr().err


def test_refutation_leaving_the_slice_replays_and_exits_1(tmp_path, capsys):
    # the taken branch leaves the slice: the refuting leaf is a non-endpoint,
    # and its replay stops there instead of crashing
    d, c = tmp_path / "br.dis", tmp_path / "br.ctr"
    d.write_text(asm.listing("br", 0x10000,
                             [asm.beq(10, 11, 0x100), asm.addi(10, 10, 1), asm.nop()]))
    c.write_text("program br\nentry 0x10000\nendpoints 0x10008\npre:\npost 0x10008:\n")
    assert main(["verify", str(d), str(c)]) == 1
    out, err = capsys.readouterr()
    assert "leaf at non-endpoint 0x10100" in out
    assert "replay: stops at 0x10100, post holds: False" in out
    assert "error:" not in err


@pytest.mark.parametrize("threshold", [None, 100000])
@pytest.mark.parametrize("second_op,want", [("add", 1), ("xor", 0)])
def test_600_instruction_chain_gets_its_verdict(tmp_path, capsys, monkeypatch,
                                                threshold, second_op, want):
    # each instruction feeds the next: the default run abbreviates into ~300
    # chained definitions, the high threshold keeps one 600-deep expression
    listing, contract = chain_program(600, second_op)
    d, c = tmp_path / "chain.dis", tmp_path / "chain.ctr"
    d.write_text(listing)
    c.write_text(contract)
    if threshold:
        monkeypatch.setattr(symexec, "ABBREV_THRESHOLD", threshold)
    assert main(["verify", str(d), str(c)]) == want
    out = capsys.readouterr().out
    if want == 1:
        assert "post holds: False" in out
        assert "ab0=" not in out


def test_state_budget_stop_is_unknown_and_times_symex(tmp_path, capsys, monkeypatch):
    # 4 sequential diamonds `bne x<11+k>,zero,+8; addi a0,a0,1`: 16 paths
    d, c = tmp_path / "dia.dis", tmp_path / "dia.ctr"
    instrs = [i for k in range(4) for i in (asm.bne(11 + k, 0, 8), asm.addi(10, 10, 1))]
    d.write_text(asm.listing("dia", 0x10000, instrs + [asm.ret()]))
    c.write_text("program dia\nentry 0x10000\nendpoints 0x10020\nparams p\npre:\n"
                 "  gpr[10] == p\n  p <u 0x1000\npost 0x10020:\n  gpr[10] <=u p + 4\n")
    argv = ["verify", str(d), str(c), "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["leaves"] == 16
    monkeypatch.setattr(symexec, "MAX_STATES", 8)
    assert main(argv) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "unknown"
    assert report["reason"] == "budget exhausted: state budget 8 exceeded"
    assert report["times"]["symex"] > 0


def test_refutation_at_a_forbidden_spin_loop_replays_and_exits_1(tmp_path, capsys):
    # a0 == 0 falls into `j 0x10004`, a forbidden label that jumps to itself:
    # replay stops there instead of spinning until its fuel runs out
    d, c = tmp_path / "spin.dis", tmp_path / "spin.ctr"
    d.write_text(asm.listing("spin", 0x10000,
                             [asm.bne(10, 0, 8), asm.j(0), asm.nop(), asm.ret()]))
    c.write_text("program spin\nentry 0x10000\nendpoints 0x1000c\nforbidden 0x10004\n"
                 "params p\npre:\n  gpr[10] == p\npost 0x1000c:\n  gpr[10] == p\n")
    assert main(["verify", str(d), str(c)]) == 1
    out, err = capsys.readouterr()
    assert "forbidden label reached" in out
    assert "replay: stops at 0x10004, post holds: False" in out
    assert "error:" not in err


def _forbidden_files(tmp_path, pre):
    # `addi a0,a0,1` twice, then `ret`; the second addi is forbidden
    d, c = tmp_path / "twice.dis", tmp_path / "twice.ctr"
    d.write_text(asm.listing("twice", 0x10000,
                             [asm.addi(10, 10, 1), asm.addi(10, 10, 1), asm.ret()]))
    c.write_text("program twice\nentry 0x10000\nendpoints 0x10008\n"
                 f"forbidden 0x10004\npre:\n{pre}post 0x10008:\n")
    return str(d), str(c)


def test_infeasible_path_into_a_forbidden_label_verifies(tmp_path, capsys):
    # a contradictory pre: no run reaches the forbidden label.  It used to
    # end the engine there and report unknown
    d, c = _forbidden_files(tmp_path, "  gpr[10] == 1\n  gpr[10] == 2\n")
    assert main(["verify", d, c, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "verified" and report["leaves"] == 1
    assert [o["origin"] for o in report["obligations"]] == ["leaf@0x10004"]


def test_symex_lists_a_reachable_forbidden_label_as_a_leaf(tmp_path, capsys):
    d, c = _forbidden_files(tmp_path, "")
    assert main(["symex", d, "--contract", c, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [leaf["at"] for leaf in doc["leaves"]] == ["0x10004"]


def test_refutation_without_free_inputs_prints_counterexample_and_replay(tmp_path,
                                                                          capsys):
    d, c = tmp_path / "five.dis", tmp_path / "five.ctr"
    d.write_text(asm.listing("five", 0x10000, [asm.li(10, 5), asm.ret()]))
    c.write_text("program five\nentry 0x10000\nendpoints 0x10004\npre:\n"
                 "post 0x10004:\n  gpr[10] == 6\n")
    assert main(["verify", str(d), str(c)]) == 1
    out, err = capsys.readouterr()
    assert "counterexample: {} (no free inputs)" in out
    assert "replay: stops at 0x10004, post holds: False" in out
    assert "error:" not in err


# -- solver failure modes --------------------------------------------------------

def _solver_script(tmp_path, body, shebang="#!/bin/sh\n"):
    """An executable solver that reads the script from stdin, then runs `body`."""
    path = tmp_path / "solver.sh"
    path.write_text(shebang + "cat > /dev/null\n" + body)
    path.chmod(0o755)
    return str(path)


def _running(pid):
    """Whether `pid` is a live process (a zombie awaiting its reaper is not)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _reaped(children):
    return children and all(p.returncode is not None and not _running(p.pid)
                            for p in children)


def test_verify_runs_one_bundled_solver_child(tmp_path, spawned, capsys):
    d, c = _fixture_files(tmp_path, "motor")
    assert main(["verify", d, c]) == 0  # 49 checks
    assert len(spawned) == 1 and _reaped(spawned)


def test_solver_flag_keeps_one_process_per_check(tmp_path, spawned, capsys):
    d, c = _fixture_files(tmp_path, "isqrt")
    minismt = Path(backend.__file__).with_name("minismt.py")
    assert main(["verify", d, c, "--unroll", "5",
                 "--solver", f"{sys.executable} -S {minismt}"]) == 0
    assert len(spawned) == 12 and _reaped(spawned)  # isqrt's 12 checks


def test_no_solver_child_outlives_a_run(tmp_path, spawned, monkeypatch, capsys):
    d, c = _fixture_files(tmp_path, "isqrt")
    assert main(["symex", d, "--contract", c]) == 3  # BudgetExhausted after a check
    assert len(spawned) == 1 and _reaped(spawned)
    assert main(["bench"]) == 0
    assert _reaped(spawned)
    d, c = _fixture_files(tmp_path, "motor")

    def bad_model(text):
        raise backend.ModelParseError("unparsable model value")

    monkeypatch.setattr(backend, "parse_model", bad_model)  # motor's first sat raises
    n = len(spawned)
    assert main(["verify", d, c]) == 4
    assert "error: ModelParseError" in capsys.readouterr().err
    assert len(spawned) == n + 1 and _reaped(spawned)


def test_solver_child_killed_between_checks_exits_4(tmp_path, monkeypatch, capsys):
    d, c = _fixture_files(tmp_path, "motor")

    def check_then_kill(obl, cfg):
        v = backend.check(obl, cfg)
        os.killpg(cfg._child.pid, signal.SIGKILL)
        return v

    monkeypatch.setattr(contracts, "check", check_then_kill)  # motor's 17 leaf checks
    assert main(["verify", d, c]) == 4
    assert "error: SolverCrash: solver exited with status -9" in capsys.readouterr().err


def test_solver_unknown_reason_reaches_the_report(incr_files, tmp_path, capsys):
    d, c = incr_files
    solver = _solver_script(tmp_path, "echo unknown\necho 'gave up: out of fuel' >&2\n")
    assert main(["verify", d, c, "--solver", solver]) == 3
    out = capsys.readouterr().out
    assert "incr: unknown" in out
    assert "solver returned unknown for post@0x1048c (gave up: out of fuel)" in out


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_solver_timeout_kills_what_the_solver_started(incr_files, tmp_path, capsys):
    d, c = incr_files
    pidfile = tmp_path / "grandchild.pid"
    solver = _solver_script(tmp_path, f"sleep 30 &\necho $! > {pidfile}\nwait\necho unsat\n")
    try:
        assert main(["verify", d, c, "--solver", solver, "--timeout", "0.5"]) == 3
        assert "solver returned unknown for post@0x1048c (timeout)" in capsys.readouterr().out
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 2.0  # SIGKILL lands at the next scheduling
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(pid)
    finally:
        if pidfile.exists() and _running(int(pidfile.read_text())):
            os.kill(int(pidfile.read_text()), signal.SIGKILL)


def test_solver_without_interpreter_line_is_a_crash(incr_files, tmp_path, capsys):
    d, c = incr_files
    solver = _solver_script(tmp_path, "echo unsat\n", shebang="")
    assert main(["verify", d, c, "--solver", solver]) == 4
    err = capsys.readouterr().err
    assert "error: SolverCrash" in err and "Exec format error" in err


def test_solver_model_violating_the_post_is_unsound(incr_files, tmp_path, capsys,
                                                    monkeypatch):
    # pre_x10 = x10 = 0 satisfies the pre and the post, so the "counterexample"
    # is a lie; the module's failure count is restored after the test, so
    # criterion 8's process-wide zero stays meaningful
    monkeypatch.setattr(backend, "_stats", {"sat_models_checked": 0, "sat_model_failures": 0})
    d, c = incr_files
    model = "((define-fun pre_x10 () (_ BitVec 64) (_ bv0 64)))"
    solver = _solver_script(tmp_path, f"echo sat\necho '{model}'\n")
    assert main(["verify", d, c, "--solver", solver]) == 4
    assert "error: SolverModelUnsound" in capsys.readouterr().err
    assert backend.model_check_stats() == {"sat_models_checked": 1, "sat_model_failures": 1}


# -- engine, contract and text paths ---------------------------------------------

def test_contract_register_the_program_never_touches(incr_files, tmp_path, capsys):
    # x9 is bound to a symbol only because the contract names it
    d, c = incr_files
    text = open(c).read().replace("params pre_x10", "params pre_x10 p")
    text = text.replace("pre:\n", "pre:\n  gpr[9] == p\n")
    kept, bumped = tmp_path / "kept.ctr", tmp_path / "bumped.ctr"
    kept.write_text(text + "  gpr[9] == p\n")
    bumped.write_text(text + "  gpr[9] == p + 1\n")
    assert main(["verify", d, str(kept)]) == 0
    assert "incr: verified" in capsys.readouterr().out
    assert main(["verify", d, str(bumped)]) == 1
    out = capsys.readouterr().out
    assert "postcondition violated at 0x1048c" in out
    assert "replay: stops at 0x1048c, post holds: False" in out


def test_symex_budget_stop_exits_3(tmp_path, capsys):
    dis, rc = fixture("loopy")
    from bircheck.contracts import print_contract
    d, c = tmp_path / "loopy.dis", tmp_path / "loopy.ctr"
    d.write_text(dis)
    c.write_text(print_contract(rc))
    assert main(["symex", str(d), "--contract", str(c)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("symbolic execution failed: ")
    assert "revisited beyond unroll bound 0" in err


def test_lift_prints_conditional_and_computed_jumps(tmp_path, capsys):
    dis, rc = fixture("isqrt")
    d = tmp_path / "isqrt.dis"
    d.write_text(dis)
    end = f"0x{max(rc.endpoints):x}"
    assert main(["lift", str(d), "--entry", f"0x{rc.entry:x}", "--end", end]) == 0
    assert "\n  (cjmp (" in capsys.readouterr().out
    dis, _ = fixture("incr")
    d = tmp_path / "incr.dis"
    d.write_text(dis)
    # an end past the ret keeps the ret in the slice
    assert main(["lift", str(d), "--entry", "0x10488", "--end", "0x10490"]) == 0
    out = capsys.readouterr().out
    assert '(block 0x1048c "00008067 (ret)"\n  (jmp-ind (& (+ (den x1) ' in out
