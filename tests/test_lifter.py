import random
from dataclasses import replace

import pytest

from bircheck import bir, disasm, isa, lifter
from bircheck.bir import Assign, CJmp, Jmp, binop, const, den
from bircheck.isa import Instr
from bircheck.lifter import MEM8, TMP, xvar

from oracles import run_program, validate_program


def test_lift_addi_is_exactly_the_increment_block():
    blk = lifter.lift_instr(Instr("addi", rd=10, rs1=10, imm=1), 0x10488)
    assert blk.label == 0x10488
    assert blk.statements == (Assign(xvar(10),
                                     binop("plus", den(xvar(10)), const(64, 1))),)
    assert blk.end == Jmp(0x1048C)
    assert "00150513" in blk.comment


def test_lift_ret_is_masked_indirect_jump_with_no_assignments():
    blk = lifter.lift_instr(Instr("jalr", rd=0, rs1=1, imm=0), 0x1048C)
    assert blk.statements == ()
    assert isinstance(blk.end, Jmp) and blk.end.computed
    target = blk.end.target
    assert target == binop("and", binop("plus", den(xvar(1)), const(64, 0)),
                           const(64, (1 << 64) - 2))


def test_lift_sd_is_store_assignment():
    blk = lifter.lift_instr(Instr("sd", rs2=11, rs1=10, imm=16), 0x10500)
    (st,) = blk.statements
    assert st.var == MEM8
    assert isinstance(st.exp, bir.Store)
    assert st.exp.addr == binop("plus", den(xvar(10)), const(64, 16))
    assert st.exp.value == den(xvar(11))
    assert blk.end == Jmp(0x10504)


def test_lift_branch_shape():
    blk = lifter.lift_instr(Instr("bge", rs1=1, rs2=2, imm=-8), 0x1000)
    assert isinstance(blk.end, CJmp)
    # bge branches when slt is false: targets are swapped
    assert blk.end.target_true == 0x1004
    assert blk.end.target_false == 0x0FF8


def test_lift_writes_to_x0_are_dropped():
    for kind, i in [("addi", Instr("addi", rd=0, rs1=5, imm=9)),
                    ("mul", Instr("mul", rd=0, rs1=3, rs2=4)),
                    ("lui", Instr("lui", rd=0, imm=0x7000)),
                    ("ld", Instr("ld", rd=0, rs1=2, imm=0))]:
        blk = lifter.lift_instr(i, 0x2000)
        assert blk.statements == (), kind


def test_lift_jalr_link_register_aliasing_uses_temp():
    blk = lifter.lift_instr(Instr("jalr", rd=1, rs1=1, imm=4), 0x3000)
    assert blk.statements[0].var == TMP
    assert blk.statements[1].var == xvar(1)
    assert blk.end.target == den(TMP)


def test_lift_slice_incr():
    text = ("Disassembly of section .text:\n"
            "   10488:\t00150513          \taddi\ta0,a0,1\n"
            "   1048c:\t00008067          \tret\n")
    unit = disasm.parse_objdump(text)
    sl = disasm.make_slice(unit, 0x10488, {0x1048C})
    prog, lm = lifter.lift_slice(sl)
    assert [b.label for b in prog.blocks] == [0x10488]
    assert lm.exits == frozenset({0x1048C})
    assert lm.instr_at[0x10488].word == 0x00150513
    assert prog.blocks[0].comment == "00150513 (addi a0,a0,1)"


def test_lift_slice_empty():
    text = "Disassembly of section .text:\n   10488:\t00150513          \taddi\ta0,a0,1\n"
    unit = disasm.parse_objdump(text)
    sl = disasm.make_slice(unit, 0x10488, {0x10488})
    prog, _ = lifter.lift_slice(sl)
    assert prog.blocks == []


def test_lift_slice_chain_of_fallthroughs():
    from bircheck.corpus import asm
    rng = random.Random(2)
    instrs = [lifter.sample_instr("addi", rng) for _ in range(8)]
    text = asm.listing("chain", 0x5000, instrs)
    unit = disasm.parse_objdump(text)
    sl = disasm.make_slice(unit, 0x5000, {0x5000 + 32})
    prog, _ = lifter.lift_slice(sl)
    assert len(prog.blocks) == 8
    for k, blk in enumerate(prog.blocks):
        assert blk.label == 0x5000 + 4 * k
        assert blk.end == Jmp(0x5000 + 4 * k + 4)


def test_lift_slice_propagates_unsupported_with_address():
    text = ("Disassembly of section .text:\n"
            "   10488:\t00150513          \taddi\ta0,a0,1\n"
            "   1048c:\t00052007          \tflw\tft0,0(a0)\n")
    unit = disasm.parse_objdump(text)
    sl = disasm.make_slice(unit, 0x10488, {0x10490})
    with pytest.raises(lifter.LiftError) as e:
        lifter.lift_slice(sl)
    assert e.value.address == 0x1048C


def test_label_discipline_on_lifted_corpus():
    from bircheck.corpus import fixture, fixture_names
    for name in fixture_names():
        dis, rc = fixture(name)
        unit = disasm.parse_objdump(dis)
        instrs = list(unit.all_instrs())
        if rc is None:
            entry, ends = instrs[0].address, {instrs[-1].address}
        else:
            entry, ends = rc.entry, rc.endpoints
        sl = disasm.make_slice(unit, entry, ends)
        prog, lm = lifter.lift_slice(sl)
        labels = set(prog.by_label) | set(lm.exits)
        # constant targets are fall-throughs, in-slice branch targets, or exits
        validate_program(prog, exits=labels)


def test_lift_instr_deterministic():
    rng = random.Random(14)
    for _ in range(100):
        i = lifter.sample_instr(rng.choice(isa.ALL_KINDS), rng)
        b1 = lifter.lift_instr(i, 0x7000)
        b2 = lifter.lift_instr(i, 0x7000)
        assert b1 == b2


def test_lifted_blocks_use_only_assign_jmp_and_int_target_cjmp():
    rng = random.Random(15)
    for kind in isa.ALL_KINDS:
        for _ in range(20):
            b = lifter.lift_instr(lifter.sample_instr(kind, rng), 0x7000)
            assert all(type(st) is Assign for st in b.statements), kind
            assert type(b.end) in (Jmp, CJmp), kind
            if type(b.end) is CJmp:
                assert type(b.end.target_true) is int, kind
                assert type(b.end.target_false) is int, kind


def test_check_simulation_addi_passes():
    rep = lifter.check_simulation(Instr("addi", rd=10, rs1=10, imm=1), 0x10488,
                                  trials=200, seed=42)
    assert rep.passed and rep.trials == 200


def test_check_simulation_x0_write_passes_only_because_dropped():
    rep = lifter.check_simulation(Instr("addi", rd=0, rs1=7, imm=3), 0x1000,
                                  trials=100, seed=1)
    assert rep.passed


def test_check_simulation_catches_corrupted_lift(monkeypatch):
    # mutation fixture: lift with an off-by-one immediate
    lift = lifter.lift_instr

    def corrupt(i, addr, comment=""):
        return lift(replace(i, imm=i.imm + 1), addr, comment)

    monkeypatch.setattr(lifter, "lift_instr", corrupt)
    rep = lifter.check_simulation(Instr("addi", rd=10, rs1=10, imm=1), 0x10488,
                                  trials=50, seed=7)
    assert not rep.passed
    cex = rep.failures[0]
    assert "x10" in cex["fields"]
    # the counterexample replays: stepping the real instruction from the
    # recorded state differs from the corrupted block's result
    s0 = cex["state"]
    want = isa.step(s0, Instr("addi", rd=10, rs1=10, imm=1)).gpr[10]
    got = cex["fields"]["x10"][1]
    assert want != got


def test_check_simulation_rejects_zero_trials():
    with pytest.raises(ValueError):
        lifter.check_simulation(Instr("addi", rd=1, rs1=1, imm=0), 0, trials=0, seed=0)


def test_whole_slice_differential_isa_vs_lifted():
    # multi-instruction runs: decode+step chains must agree with the lifted
    # program's interpreter on final registers, csrs, memory and stop address
    from bircheck.corpus import asm
    from test_symexec import _random_loopfree_program

    rng = random.Random(0xD1FF)
    for trial in range(30):
        base = 0x50000
        n = rng.randrange(2, 12)
        instrs = _random_loopfree_program(rng, n, base)
        text = asm.listing("diff", base, instrs)
        unit = disasm.parse_objdump(text)
        end = base + 4 * n
        sl = disasm.make_slice(unit, base, {end})
        prog, lm = lifter.lift_slice(sl)
        for _ in range(10):
            s0 = lifter.random_machine_state(rng, base)
            for k, ins in enumerate(instrs):  # seed load targets
                if ins.kind in isa.LOAD_KINDS:
                    addr = (s0.read_gpr(ins.rs1) + ins.imm) & isa.MASK64
                    for b in range(8):
                        s0.mem[(addr + b) & isa.MASK64] = rng.getrandbits(8)
            isa_final, _ = isa.run(s0.copy(), sl, fuel=1000)
            env0 = lifter.machine_to_env(s0)
            envf, stop, _ = run_program(prog, env0, base, exits={end},
                                        fuel=1000)
            assert stop == isa_final.pc == end
            for r in range(1, 32):
                assert envf[lifter.xvar(r)] == isa_final.gpr[r], (trial, r)
            for name in isa.CSR_LIST:
                assert envf[lifter.csrvar(name)] == isa_final.csr[name]
            got = {a: v for a, v in envf[lifter.MEM8].items() if v != 0}
            want = {a: v for a, v in isa_final.mem.items() if v != 0}
            assert got == want


@pytest.mark.parametrize("kind", isa.ALL_KINDS)
def test_simulation_spot_sweep(kind):
    # a fast spot check per kind; the 1000-trial sweep runs in acceptance
    rng = random.Random(hash(kind) & 0xFFFF)
    for _ in range(2):
        i = lifter.sample_instr(kind, rng)
        rep = lifter.check_simulation(i, 0x10000, trials=60, seed=rng.getrandbits(32))
        assert rep.passed, (kind, i, rep.failures[:1])
