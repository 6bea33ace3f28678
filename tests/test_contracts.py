import dataclasses
import random
import re

import pytest

from bircheck import bir, contracts, disasm, isa, lifter, symexec
from bircheck.bir import binop, binpred, const, den, load, sym
from bircheck.contracts import (ContractError, Param, RBin, RCmp, RConst,
                                RGpr, RMemLoad, RParam, RiscvContract,
                                parse_contract, print_contract,
                                replay_counterexample, sample_prestate, to_bir,
                                translate, translation_check, verify)
from bircheck.corpus import asm, fixture, fixture_config, fixture_names
from bircheck.lifter import MEM8, xvar
from bircheck.smt import SolverConfig

from conftest import chain_program, load_fixture


def test_translate_gpr_equality_matches_ir_shape():
    # gpr[10] == pre_x10 becomes the equality over the x10 variable
    pred = (RCmp("eq", RGpr(10), RParam("pre_x10")),)
    exp = translate(pred)
    assert exp == binpred("eq", den(xvar(10)), sym("pre_x10", bir.Imm64))


def test_translate_literal_true():
    assert translate(()) is bir.true_exp


def test_translate_saved_register_atom_shape():
    # mem_load_dword(pre_mscratch+8) == pre_mepc
    pred = (RCmp("eq", RMemLoad(RBin("add", RParam("pre_mscratch"), RConst(8))),
                 RParam("pre_mepc")),)
    exp = translate(pred)
    want = binpred("eq",
                   load(den(MEM8), binop("plus", sym("pre_mscratch", bir.Imm64),
                                         const(64, 8)), 64),
                   sym("pre_mepc", bir.Imm64))
    assert exp == want


def test_translate_gpr0_is_constant_zero():
    pred = (RCmp("eq", RGpr(0), RConst(0)),)
    assert translate(pred) == binpred("eq", const(64, 0), const(64, 0))


def test_translation_equivalence_on_corpus_contracts():
    # ISA-level evaluation equals IR-level evaluation of the translation;
    # at least 1000 trials per contract (pre plus posts)
    for name in ("incr", "mod2", "swap", "isqrt", "motor", "chacha_qr",
                 "trap_entry_mini"):
        _, rc = fixture(name)
        preds = [("pre", rc.pre)] + [(hex(a), p) for a, p in rc.post.items()]
        per_pred = max(1000 // len(preds) + 1, 550)
        for label, pred in preds:
            mism = translation_check(pred, trials=per_pred,
                                     seed=hash((name, label)) & 0xFFFF)
            assert not mism, (name, label, mism)


def test_contract_parse_print_roundtrip():
    _, rc = fixture("trap_entry_mini")
    text = print_contract(rc)
    rc2 = parse_contract(text)
    assert rc2 == rc
    commented = text.replace("pre:\n", "pre:  # one conjunct a line\n# own line\n")
    assert parse_contract("# a comment line\n" + commented) == rc
    rc = dataclasses.replace(rc, forbidden=frozenset({0x20000, 0x10}))
    text = print_contract(rc)
    assert "\nforbidden 0x10 0x20000\n" in text
    assert parse_contract(text) == rc


def test_endpoints_without_a_post_get_the_true_post():
    rc = RiscvContract(name="p", entry=0x10, endpoints=frozenset({0x30, 0x14, 0x20}),
                       pre=(), post={0x20: (RCmp("eq", RGpr(10), RConst(1)),)}, params=())
    # the given posts first, in their order, then the missing endpoints
    assert list(rc.post.items()) == [(0x20, (RCmp("eq", RGpr(10), RConst(1)),)),
                                     (0x14, ()), (0x30, ())]


def test_contract_parser_errors():
    with pytest.raises(ContractError):
        parse_contract("entry 0x10\nendpoints 0x14\npre:\n")  # no program name
    with pytest.raises(ContractError):
        parse_contract("program p\nentry 0x10\nendpoints 0x14\npre:\n"
                       "  gpr[10] == undeclared\n")
    with pytest.raises(ContractError):
        parse_contract("program p\nentry 0x10\nendpoints 0x14\n"
                       "params s_evil\npre:\n")
    with pytest.raises(ContractError):
        parse_contract("program p\nentry 0x10\nendpoints 0x14\npre:\n"
                       "  gpr[99] == 0\n")


@pytest.mark.parametrize("line,text", [
    ("entry 0x1048q", "bad number '0x1048q'"),
    ("endpoints 0x1048c zz", "bad number 'zz'"),
    ("post 0x1048c zz:", "bad number '0x1048c zz'"),
    ("pre:\n  gpr[abc] == 0", "bad number 'abc'"),
    ("pre:\n  gpr[10] <u 0x10000000000000000",
     "0x10000000000000000 does not fit in 64 bits"),
    ("pre:\n  gpr[10] == 18446744073709551616",
     "18446744073709551616 does not fit in 64 bits"),
    ("pre:\n  gpr[10] == $", "cannot tokenize '$'"),
    ("pre:\n  gpr[10]", "expected comparison, got None"),
    ("pre:\n  gpr[10] == 1 2", "trailing tokens ['2']"),
    ("pre:\n  csr[foo] == 1", "unsupported csr 'foo'"),
    ("gpr[10] == 1", "unexpected line 'gpr[10] == 1'"),
], ids=["entry", "endpoints", "post", "gpr_index", "hex_too_wide", "decimal_too_wide",
        "untokenizable", "no_comparison", "trailing", "unknown_csr", "unexpected"])
def test_contract_parser_rejects_bad_numbers_naming_the_line(line, text):
    # bad numbers used to escape as a bare ValueError with no line, or (above
    # 64 bits) to wrap silently; the other text errors name their line too
    contract = f"program p\nentry 0x10488\nendpoints 0x1048c\n{line}\n"
    last = len(contract.splitlines())
    with pytest.raises(ContractError, match=f"line {last}: {re.escape(text)}"):
        parse_contract(contract)


def test_contract_parser_bounds_parenthesis_nesting():
    def contract(depth, opener="("):
        e = opener * depth + "pre_x10" + ")" * depth
        return ("program p\nentry 0x10488\nendpoints 0x1048c\nparams pre_x10\n"
                f"pre:\n  gpr[10] == {e}\n")

    limit = contracts._ExprParser.MAX_NESTING
    assert parse_contract(contract(limit)).pre[0].b == RParam("pre_x10")
    for opener in ("(", "sext32(", "mem_load_dword(", "1 | 2 * ("):
        parse_contract(contract(limit, opener))  # the deepest accepted shapes
        with pytest.raises(ContractError, match="nest deeper than"):
            parse_contract(contract(limit + 1, opener))


def test_contract_parser_unary_minus_chain_needs_no_recursion():
    rc = parse_contract("program p\nentry 0x10488\nendpoints 0x1048c\nparams q\n"
                        "pre:\n  gpr[10] == " + "- " * 3000 + "q\n")
    e = rc.pre[0].b
    for _ in range(3000):
        assert e.op == "sub" and e.a == RConst(0)
        e = e.b
    assert e == RParam("q")


def test_flat_1500_term_postcondition_verifies(solver):
    # "pre_x10 + 1 + q - q + q - q ...": a left-deep tree 1500 terms long,
    # through parsing, translation, printing, evaluation and verification
    sl, prog, lm, rc = load_fixture("incr")
    terms = " + q - q" * 749
    rc = parse_contract("program incr\nentry 0x10488\nendpoints 0x1048c\n"
                        "params pre_x10 q\npre:\n  gpr[10] == pre_x10\n"
                        f"post 0x1048c:\n  gpr[10] == pre_x10 + 1{terms}\n")
    post = rc.post[0x1048C]
    assert bir.node_count(translate(post)) > 3000
    assert contracts.pred_params(post) == ["pre_x10", "q"]
    assert len(print_contract(rc)) > 1500 * 4
    assert translation_check(post, trials=3, seed=1) == []
    res = verify(to_bir(rc, prog), solver=solver)
    assert res.verdict == "verified", res.reason


def test_counterexample_names_inputs_only(solver):
    # the 200-instruction xor;add chain abbreviates into ab<N> definitions;
    # they are not inputs and stay out of the counterexample
    listing, text = chain_program(200, "add")
    rc = parse_contract(text)
    sl = disasm.make_slice(disasm.parse_objdump(listing), rc.entry, rc.endpoints)
    prog, _ = lifter.lift_slice(sl)
    res = verify(to_bir(rc, prog), solver=solver)
    assert res.verdict == "refuted"
    assert set(res.counterexample) == {"p", "q", "s_x10", "s_x11"}
    assert replay_counterexample(rc, sl, res.counterexample) == (res.endpoint, False)


def test_verify_incr_fig_contract(solver):
    sl, prog, lm, rc = load_fixture("incr")
    res = verify(to_bir(rc, prog), solver=solver)
    assert res.verdict == "verified"
    assert res.leaf_count == 1


def test_verify_off_by_one_mutant_refuted_and_replays(solver):
    sl, prog, lm, rc = load_fixture("incr")
    mutant = RiscvContract(
        name="incr", entry=rc.entry, endpoints=rc.endpoints, pre=rc.pre,
        post={rc.entry + 4: (RCmp("eq", RGpr(10),
                                  RBin("add", RParam("pre_x10"), RConst(2))),)},
        params=rc.params)
    res = verify(to_bir(mutant, prog), solver=solver)
    assert res.verdict == "refuted"
    assert res.endpoint == 0x1048C
    assert res.counterexample is not None
    stop, holds = replay_counterexample(mutant, sl, res.counterexample)
    assert stop == 0x1048C and not holds
    # the true contract does hold on the same state
    stop2, holds2 = replay_counterexample(rc, sl, res.counterexample)
    assert holds2


def test_verify_swap_with_concrete_corroboration(solver):
    sl, prog, lm, rc = load_fixture("swap")
    res = verify(to_bir(rc, prog), solver=solver)
    assert res.verdict == "verified"
    rng = random.Random(77)
    for _ in range(100):
        m, params = sample_prestate(rc, rng)
        final, _ = isa.run(m, sl, fuel=1000)
        assert final.pc in rc.endpoints
        assert contracts.eval_pred(rc.post[final.pc], final, params)


def test_verify_unknown_on_budget(solver):
    sl, prog, lm, rc = load_fixture("loopy")
    res = verify(to_bir(rc, prog), fixture_config("loopy"), solver)
    assert res.verdict == "unknown"
    assert "budget" in res.reason


def test_verify_refutes_reachable_non_endpoint(solver):
    # declaring a label past the real exit as the endpoint leaves the actual
    # stop address as a non-endpoint leaf, which refutes the contract
    sl, prog, lm, rc = load_fixture("incr")
    bad = RiscvContract(name="incr", entry=rc.entry,
                        endpoints=frozenset({rc.entry + 8}),
                        pre=rc.pre, post={rc.entry + 8: ()}, params=rc.params)
    bc = to_bir(bad, prog)
    res = verify(bc, solver=solver)
    assert res.verdict == "refuted"
    assert res.endpoint == rc.entry + 4  # stops at the exit label instead


def test_verify_forbidden_label(solver):
    sl, prog, lm, rc = load_fixture("incr4")
    bad = RiscvContract(name="incr4", entry=rc.entry, endpoints=rc.endpoints,
                        pre=rc.pre, post=rc.post, params=rc.params,
                        forbidden=frozenset({rc.entry + 4}))
    res = verify(to_bir(bad, prog), solver=solver)
    assert res.verdict == "refuted"
    assert "forbidden" in res.reason


def test_verify_call_and_return_with_propagated_address(solver):
    # caller jal + callee ret: the return address is written concretely by
    # jal, so the computed jump resolves to a single target by constant
    # propagation (no solver case analysis needed)
    from bircheck.corpus import asm
    from bircheck.isa import Instr

    base = 0x30000
    instrs = [
        Instr("jal", rd=1, imm=8),        # call the callee at base+8
        asm.nop(),                        # return lands here (endpoint)
        asm.addi(10, 10, 1),              # callee body
        asm.ret(),
    ]
    text = asm.listing("callret", base, instrs)
    unit = disasm.parse_objdump(text)
    # endpoints: the return site plus the lift bound (unreachable)
    endpoints = frozenset({base + 4, base + 16})
    sl = disasm.make_slice(unit, base, endpoints)
    prog, lm = lifter.lift_slice(sl)
    rc = RiscvContract(
        name="callret", entry=base, endpoints=endpoints,
        pre=(RCmp("eq", RGpr(10), RParam("pre_x10")),),
        post={base + 4: (RCmp("eq", RGpr(10),
                              RBin("add", RParam("pre_x10"), RConst(1))),),
              base + 16: ()},
        params=(contracts.Param("pre_x10"),))
    res = verify(to_bir(rc, prog), solver=solver)
    assert res.verdict == "verified"
    assert res.leaf_count == 1
    (leaf,) = res.structure.leaves
    assert leaf.at == base + 4
    # concrete corroboration through the ISA interpreter
    rng = random.Random(9)
    for _ in range(25):
        m, params = sample_prestate(rc, rng)
        final, _ = isa.run(m, sl, fuel=100)
        assert final.pc == base + 4
        assert contracts.eval_pred(rc.post[final.pc], final, params)


def test_sample_prestate_handles_corpus_preconditions():
    rng = random.Random(5)
    for name in ("incr", "mod2", "swap", "isqrt", "motor", "chacha_qr",
                 "trap_entry_mini"):
        _, rc = fixture(name)
        for _ in range(20):
            m, params = sample_prestate(rc, rng)
            assert contracts.eval_pred(rc.pre, m, params), name


def test_refuted_memory_contract_replays_through_model_bytes(solver):
    # a wrong swap post: the counter-model must carry concrete memory bytes
    # that replay to a violation through the ISA interpreter
    sl, prog, lm, rc = load_fixture("swap")
    wrong_post = {max(rc.endpoints): (RCmp("eq", RMemLoad(RParam("pre_p")),
                                           RParam("pre_v0")),)}  # unchanged, not swapped
    mutant = contracts.RiscvContract(
        name="swap", entry=rc.entry, endpoints=rc.endpoints, pre=rc.pre,
        post=wrong_post, params=rc.params)
    res = verify(to_bir(mutant, prog), solver=solver)
    assert res.verdict == "refuted"
    assert isinstance(res.counterexample.get("s_MEM8", {}), dict)
    stop, holds = replay_counterexample(mutant, sl, res.counterexample)
    assert stop in rc.endpoints and not holds
    # while the true contract holds on the very same state
    _, holds_true = replay_counterexample(rc, sl, res.counterexample)
    assert holds_true


def test_verified_verdicts_concretely_corroborated(solver):
    # independent of the solver: >= 100 pre-satisfying concrete executions per
    # verified contract must stop at an endpoint satisfying its post
    rng = random.Random(123)
    for name in ("incr", "incr4", "mod2", "swap", "isqrt", "motor",
                 "chacha_qr", "trap_entry_mini"):
        sl, prog, lm, rc = load_fixture(name)
        res = verify(to_bir(rc, prog), fixture_config(name), solver)
        assert res.verdict == "verified", name
        for _ in range(100):
            m, params = sample_prestate(rc, rng)
            final, _ = isa.run(m, sl, fuel=100_000)
            assert final.pc in rc.endpoints, name
            assert contracts.eval_pred(rc.post[final.pc], final, params), name


def _count_checks(monkeypatch):
    """A list of the solver checks made from symexec and contracts from now
    on, one entry per check, wrapped as perfbench's tracer wraps them."""
    made = []

    def counting(fn, obls_of):
        def wrapped(arg, *a, **kw):
            made.extend(obls_of(arg))
            return fn(arg, *a, **kw)
        return wrapped

    for mod in (symexec, contracts):
        monkeypatch.setattr(mod, "check", counting(mod.check, lambda o: [o]))
    monkeypatch.setattr(symexec, "check_many", counting(symexec.check_many, list))
    return made


@pytest.mark.parametrize("name", ["incr", "incr4", "mod2", "swap", "chacha_qr",
                                  "trap_entry_mini"])
def test_report_lists_every_solver_check(name, solver, monkeypatch):
    sl, prog, lm, rc = load_fixture(name)
    made = _count_checks(monkeypatch)
    res = verify(to_bir(rc, prog), fixture_config(name), solver)
    assert res.verdict == "verified"
    assert len(made) == len(res.obligations)


def test_computed_jump_targets_are_not_checked_twice(solver, monkeypatch):
    # `jalr x0,0(ra)` with ra one of 0x200, 0x204: two sat enumeration checks
    # find the targets and an unsat one closes the list; each target's model
    # already shows its state feasible, so no prune check follows
    rc = parse_contract("program two_targets\nentry 0x100\nendpoints 0x200 0x204\n"
                        "pre:\n  gpr[1] - 0x200 <u 8\n  gpr[1] & 3 == 0\n"
                        "post 0x200:\npost 0x204:\n")
    prog = bir.BirProgram([lifter.lift_instr(isa.Instr("jalr", rd=0, rs1=1, imm=0),
                                             0x100)])
    made = _count_checks(monkeypatch)
    st = contracts.execute(to_bir(rc, prog), solver=solver)
    assert [leaf.at for leaf in st.leaves] == [0x200, 0x204]
    assert [o.origin for o in made] == ["indirect@0x100"] * 3


def _save_restore(slots, pre_frame="gpr[5]", post_regs=None):
    """(slice, contract) for a program that stores x10.. to 8-byte slots at
    x5 and loads them back into x18.. from the same slots at x6; the
    precondition ties x6 to `pre_frame`.  `post_regs[i]` names the parameter
    gpr[18 + i] must equal at the end (default: slot i's saved value)."""
    base = 0x20000
    instrs = ([asm.sd(10 + i, 8 * i, 5) for i in range(slots)] +
              [asm.ld(18 + i, 8 * i, 6) for i in range(slots)] + [asm.ret()])
    end = base + 4 * 2 * slots
    params = [f"p{i}" for i in range(slots)]
    post_regs = post_regs or params
    text = (f"program save_restore_{slots}\nentry 0x{base:x}\nendpoints 0x{end:x}\n"
            f"params {' '.join(params)}\npre:\n  gpr[6] == {pre_frame}\n" +
            "".join(f"  gpr[{10 + i}] == p{i}\n" for i in range(slots)) +
            f"post 0x{end:x}:\n" +
            "".join(f"  gpr[{18 + i}] == {p}\n" for i, p in enumerate(post_regs)))
    rc = parse_contract(text)
    sl = disasm.make_slice(disasm.parse_objdump(asm.listing("sr", base, instrs)),
                           rc.entry, rc.endpoints)
    return sl, rc


def test_second_base_register_save_restore_is_one_check(solver, monkeypatch):
    # the loads go through x6, the stores through x5: the simplifier cannot
    # match them, so the entailment decides the aliasing under x5 == x6
    sl, rc = _save_restore(8)
    made = _count_checks(monkeypatch)
    res = verify(to_bir(rc, lifter.lift_slice(sl)[0]), solver=solver)
    assert res.verdict == "verified", res.reason
    assert len(made) == len(res.obligations) == 1


@pytest.mark.parametrize("mutant", [
    {"post_regs": ["p1", "p0"] + [f"p{i}" for i in range(2, 8)]},  # wrong post
    {"pre_frame": "gpr[5] + 4"},                                    # overlapping frame
])
def test_second_base_register_mutants_refuted_and_replay(solver, mutant):
    sl, rc = _save_restore(8, **mutant)
    res = verify(to_bir(rc, lifter.lift_slice(sl)[0]), solver=solver)
    assert res.verdict == "refuted"
    assert replay_counterexample(rc, sl, res.counterexample) == (res.endpoint, False)


def _left_sum(n):
    e = RParam("q")
    for k in range(1, n):
        e = RBin("add", e, RConst(k))
    return e


def _contract_with_post(atom):
    return RiscvContract(name="p", entry=0x10000, endpoints=frozenset({0x10004}),
                         pre=(), post={0x10004: (atom,)}, params=(Param("q"),))


def test_printed_200_term_sum_parses_back():
    rc = _contract_with_post(RCmp("eq", RGpr(10), _left_sum(200)))
    text = print_contract(rc)
    assert "(" not in text.splitlines()[-1]
    assert parse_contract(text) == rc


def test_printed_random_expressions_parse_back():
    rng = random.Random(41)
    ops = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr"]

    def rand(depth):
        k = rng.randrange(6 if depth else 3)
        if k == 0:
            return RParam("q")
        if k == 1:
            return RConst(rng.choice([0, 5, 0x1234]))
        if k == 2:
            return RGpr(rng.randrange(32))
        if k == 3:
            return RMemLoad(rand(depth - 1))
        return RBin(rng.choice(ops), rand(depth - 1), rand(depth - 1))

    for _ in range(300):
        rc = _contract_with_post(RCmp(rng.choice(["eq", "ult", "ule"]), rand(6), rand(6)))
        assert parse_contract(print_contract(rc)) == rc


@pytest.mark.parametrize("name", ["abs", "about", "abc"])
def test_parameter_names_starting_with_ab_parse(name):
    rc = parse_contract(f"program p\nentry 0x10000\nendpoints 0x10004\n"
                        f"params {name}\npre:\n  gpr[10] == {name}\n")
    assert rc.params == (Param(name),)


@pytest.mark.parametrize("name", ["ab7", "s_x10"])
def test_engine_symbol_names_are_rejected_as_parameters(name):
    with pytest.raises(ContractError, match="collides with engine symbol"):
        parse_contract(f"program p\nentry 0x10000\nendpoints 0x10004\nparams {name}\n")


@pytest.mark.parametrize("name", ["gpr", "csr", "mem_load_dword", "sext32"])
def test_predicate_keywords_are_rejected_as_parameters(name):
    # the parser reads each as an atom, so no use of such a parameter parses
    with pytest.raises(ContractError, match=f"parameter name '{name}' is a keyword"):
        parse_contract(f"program p\nentry 0x10000\nendpoints 0x10004\nparams {name}\n")


def _solver_time_is_obligation_time(res):
    assert res.obligations
    assert abs(res.times["solver"] - sum(o["seconds"] for o in res.obligations)) < 1e-5


def test_verify_solver_time_counts_non_endpoint_leaves(solver):
    # the taken branch leaves the slice: its leaf gets a feasibility check
    listing = asm.listing("br", 0x10000,
                          [asm.beq(10, 11, 0x100), asm.addi(10, 10, 1), asm.nop()])
    rc = parse_contract("program br\nentry 0x10000\nendpoints 0x10008\npre:\n"
                        "post 0x10008:\n")
    sl = disasm.make_slice(disasm.parse_objdump(listing), rc.entry, rc.endpoints)
    prog, _ = lifter.lift_slice(sl)
    res = verify(to_bir(rc, prog), solver=solver)
    assert res.verdict == "refuted" and res.reason == "leaf at non-endpoint 0x10100"
    assert [(o["origin"], o["kind"]) for o in res.obligations] == \
        [("post@0x10008", "entailment"), ("leaf@0x10100", "feasibility")]
    _solver_time_is_obligation_time(res)


def test_verify_solver_time_counts_the_forbidden_state(solver):
    sl, prog, lm, rc = load_fixture("incr4")
    bad = RiscvContract(name="incr4", entry=rc.entry, endpoints=rc.endpoints,
                        pre=rc.pre, post=rc.post, params=rc.params,
                        forbidden=frozenset({rc.entry + 4}))
    res = verify(to_bir(bad, prog), solver=solver)
    assert res.verdict == "refuted" and res.reason == "forbidden label reached"
    assert [o["kind"] for o in res.obligations] == ["feasibility"]
    _solver_time_is_obligation_time(res)


def test_fixture_dumps_name_no_abbreviations(tmp_path):
    names = [n for n in fixture_names() if fixture(n)[1] is not None]
    assert len(names) == 9
    defs = 0
    for name in names:
        sl, prog, lm, rc = load_fixture(name)
        res = verify(to_bir(rc, prog), fixture_config(name),
                     SolverConfig(dump_dir=str(tmp_path / name)))
        if res.structure is not None:
            defs += sum(len(leaf.abbrevs) for leaf in res.structure.leaves)
    assert defs > 0  # the engine did abbreviate
    dumps = list(tmp_path.glob("*/*.smt2"))
    assert dumps
    for f in dumps:
        assert not re.search(r"\bab\d", f.read_text()), f.name


def test_256_store_program_entailment_stays_small(tmp_path):
    # store-scale shape: 256 stores to slots of one base register, then 256
    # loads of shuffled slots, each copied to a fresh slot
    n, base, tmp, srcs = 256, 11, 5, (12, 13, 14, 15, 16, 17)
    rng = random.Random(43)
    perm = list(range(n))
    rng.shuffle(perm)
    src = [rng.choice(srcs) for _ in range(n)]

    def off(i):
        return -2048 + 8 * i

    instrs = [asm.sd(src[i], off(i), base) for i in range(n)]
    for j in range(n):
        instrs += [asm.ld(tmp, off(perm[j]), base), asm.sd(tmp, off(n + j), base)]
    instrs.append(asm.ret())
    end = 0x20000 + 4 * (len(instrs) - 1)
    pre = [f"gpr[{base}] == b"] + [f"gpr[{r}] == v{r}" for r in srcs]
    post = [f"mem_load_dword(gpr[{base}] + {off(n + j)}) == v{src[perm[j]]}"
            for j in range(n)]
    text = (f"program store_scale\nentry 0x20000\nendpoints 0x{end:x}\n"
            f"params b {' '.join(f'v{r}' for r in srcs)}\npre:\n  "
            + "\n  ".join(pre) + f"\npost 0x{end:x}:\n  " + "\n  ".join(post) + "\n")
    rc = parse_contract(text)
    sl = disasm.make_slice(disasm.parse_objdump(asm.listing("store_scale", 0x20000, instrs)),
                           rc.entry, rc.endpoints)
    prog, _ = lifter.lift_slice(sl)
    res = verify(to_bir(rc, prog), solver=SolverConfig(dump_dir=str(tmp_path)))
    assert res.verdict == "verified", res.reason
    assert not any(a.ty is bir.Mem for leaf in res.structure.leaves
                   for a, _ in leaf.abbrevs)  # memory is never abbreviated
    post_dump, = tmp_path.glob("*_entailment_post_*.smt2")
    assert post_dump.stat().st_size <= 8 * 1024


def test_load_under_40_stores_reads_the_stored_value():
    # 40 stores to slots of one base, then a load of the first slot: the
    # simplifier reads the value down the store chain, with memory never
    # abbreviated however long the chain grows
    n, base, tmp, val = 40, 11, 5, 12
    instrs = [asm.sd(val if i == 0 else 13, 8 * i, base) for i in range(n)]
    instrs += [asm.ld(tmp, 0, base), asm.ret()]
    end = 0x20000 + 4 * (len(instrs) - 1)
    rc = parse_contract(f"program first_slot\nentry 0x20000\nendpoints 0x{end:x}\n"
                        f"params v\npre:\n  gpr[{val}] == v\n"
                        f"post 0x{end:x}:\n  gpr[{tmp}] == v\n")
    sl = disasm.make_slice(disasm.parse_objdump(asm.listing("first_slot", 0x20000, instrs)),
                           rc.entry, rc.endpoints)
    prog, _ = lifter.lift_slice(sl)
    res = verify(to_bir(rc, prog))
    assert res.verdict == "verified", res.reason
    leaf, = res.structure.leaves
    assert leaf.env[xvar(tmp)] is res.structure.initial.env[xvar(val)]
    assert not any(a.ty is bir.Mem for a, _ in leaf.abbrevs)
