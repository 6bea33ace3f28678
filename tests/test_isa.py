import random

import pytest

from bircheck import disasm, isa
from bircheck.isa import Instr, MachineState


def test_decode_paper_words():
    assert isa.decode(0x00150513) == Instr("addi", rd=10, rs1=10, imm=1)
    assert isa.decode(0x00008067) == Instr("jalr", rd=0, rs1=1, imm=0)
    # all-zero fields with the OP opcode
    assert isa.decode(0x00000033) == Instr("add", rd=0, rs1=0, rs2=0)


def test_decode_rejects_unsupported():
    with pytest.raises(isa.UnsupportedInstr):
        isa.decode(0x00052007)  # flw: floating point is out of scope
    with pytest.raises(isa.UnsupportedInstr):
        isa.decode(0x0000100F)  # fence.i
    with pytest.raises(isa.UnsupportedInstr):
        isa.decode(0x4501)      # compressed
    assert isa.decode(0x30002073) == Instr("csrrs", rd=0, rs1=0, csr="mstatus")


def test_decode_rejects_unknown_csr():
    # csrrw against csr 0x305 (mtvec) is outside the supported csr file
    word = (0x305 << 20) | (1 << 12) | (5 << 7) | 0b1110011
    with pytest.raises(isa.UnsupportedInstr):
        isa.decode(word)


def test_encode_decode_roundtrip_random():
    from bircheck import lifter
    rng = random.Random(99)
    for _ in range(4000):
        kind = rng.choice(isa.ALL_KINDS)
        i = lifter.sample_instr(kind, rng)
        w = isa.encode(i)
        assert isa.decode(w) == i, (i, hex(w))


def test_step_addi_increments():
    s = MachineState(pc=0x10488)
    s.gpr[10] = 5
    s2 = isa.step(s, isa.decode(0x00150513))
    assert s2.gpr[10] == 6
    assert s2.pc == 0x1048C
    assert s.gpr[10] == 5  # input state untouched


def test_step_x0_stays_zero():
    rng = random.Random(5)
    for kind in ("addi", "add", "lui", "ld", "jal", "jalr", "csrrw", "mulhu"):
        from bircheck import lifter
        i = lifter.sample_instr(kind, rng)
        i = Instr(i.kind, rd=0, rs1=i.rs1, rs2=i.rs2, imm=i.imm, csr=i.csr)
        s = MachineState(pc=0x1000)
        for r in range(1, 32):
            s.gpr[r] = rng.getrandbits(64)
        s2 = isa.step(s, i)
        assert s2.gpr[0] == 0


def test_step_sd_little_endian_bytes():
    # expected bytes derived from the byte-by-byte little-endian definition
    s = MachineState(pc=0)
    s.gpr[1] = 0x0102030405060708
    s.gpr[2] = 0x1000
    s2 = isa.step(s, Instr("sd", rs1=2, rs2=1, imm=8))
    expected = {}
    for k in range(8):
        expected[0x1008 + k] = (0x0102030405060708 >> (8 * k)) & 0xFF
    assert {a: v for a, v in s2.mem.items()} == expected
    assert list(expected.values()) == [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]


def test_mem_load_dword():
    assert isa.mem_load_dword({}, 0x500) == 0
    mem = {}
    for k, b in enumerate([0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]):
        mem[0x2000 + k] = b
    assert isa.mem_load_dword(mem, 0x2000) == 0x0102030405060708


def test_store_load_roundtrip_random():
    rng = random.Random(11)
    for _ in range(300):
        nbytes = rng.choice([1, 2, 4, 8])
        kind_s = {1: "sb", 2: "sh", 4: "sw", 8: "sd"}[nbytes]
        kind_l = {1: "lbu", 2: "lhu", 4: "lwu", 8: "ld"}[nbytes]
        val = rng.getrandbits(64)
        addr = rng.getrandbits(64)
        s = MachineState(pc=0)
        s.gpr[1] = val
        s.gpr[2] = addr
        s = isa.step(s, Instr(kind_s, rs1=2, rs2=1, imm=0))
        s.pc = 0
        s = isa.step(s, Instr(kind_l, rd=3, rs1=2, imm=0))
        assert s.gpr[3] == val & ((1 << (8 * nbytes)) - 1)


def test_div_rem_edge_cases():
    cases = [
        # (kind, rs1, rs2, expected) per the ISA rules for /0 and overflow
        ("div", 7, 0, isa.MASK64),
        ("divu", 7, 0, isa.MASK64),
        ("rem", 7, 0, 7),
        ("remu", 7, 0, 7),
        ("div", 0x8000000000000000, isa.MASK64, 0x8000000000000000),
        ("rem", 0x8000000000000000, isa.MASK64, 0),
        ("div", isa.u64(-7), 2, isa.u64(-3)),
        ("rem", isa.u64(-7), 2, isa.u64(-1)),
    ]
    for kind, a, b, want in cases:
        s = MachineState(pc=0)
        s.gpr[1], s.gpr[2] = a, b
        s2 = isa.step(s, Instr(kind, rd=3, rs1=1, rs2=2))
        assert s2.gpr[3] == want, (kind, hex(a), hex(b), hex(s2.gpr[3]))


def test_step_deterministic():
    rng = random.Random(3)
    from bircheck import lifter
    for _ in range(50):
        kind = rng.choice(isa.ALL_KINDS)
        i = lifter.sample_instr(kind, rng)
        s = lifter.random_machine_state(rng, 0x4000, i)
        a = isa.step(s.copy(), i)
        b = isa.step(s.copy(), i)
        assert a.gpr == b.gpr and a.pc == b.pc and a.mem == b.mem and a.csr == b.csr


def test_run_incr_slice():
    text = ("Disassembly of section .text:\n"
            "   10488:\t00150513          \taddi\ta0,a0,1\n"
            "   1048c:\t00008067          \tret\n")
    unit = disasm.parse_objdump(text)
    sl = disasm.make_slice(unit, 0x10488, {0x1048C})
    s = MachineState(pc=0x10488)
    s.gpr[10] = 41
    final, steps = isa.run(s, sl, fuel=10)
    assert final.pc == 0x1048C and final.gpr[10] == 42 and steps == 1


def test_run_fuel_exhausted():
    text = "Disassembly of section .text:\n   10488:\t00150513          \taddi\ta0,a0,1\n"
    unit = disasm.parse_objdump(text)
    sl = disasm.make_slice(unit, 0x10488, {0x1048C})
    s = MachineState(pc=0x10488)
    with pytest.raises(isa.FuelExhausted):
        isa.run(s, sl, fuel=0)


def test_run_pc_outside_slice():
    text = "Disassembly of section .text:\n   10488:\t008000ef          \tjal\tra,10490\n"
    unit = disasm.parse_objdump(text)
    sl = disasm.make_slice(unit, 0x10488, {0x1048C})
    s = MachineState(pc=0x10488)
    with pytest.raises(isa.PcOutsideSlice):
        isa.run(s, sl, fuel=10)


def test_run_swap_routine_exchanges_dwords():
    # oracle: the direct two-assignment definition of a swap
    from bircheck.corpus import fixture
    dis, rc = fixture("swap")
    unit = disasm.parse_objdump(dis)
    sl = disasm.make_slice(unit, rc.entry, rc.endpoints)
    rng = random.Random(21)
    for _ in range(50):
        p = rng.getrandbits(60) & ~7
        v0, v1 = rng.getrandbits(64), rng.getrandbits(64)
        s = MachineState(pc=rc.entry)
        s.gpr[10], s.gpr[11] = p, p + 8
        isa.mem_store(s.mem, p, v0, 8)
        isa.mem_store(s.mem, p + 8, v1, 8)
        final, _ = isa.run(s, sl, fuel=100)
        assert isa.mem_load_dword(final.mem, p) == v1
        assert isa.mem_load_dword(final.mem, p + 8) == v0


def test_decoder_sweep_pins_the_accepted_words_and_reencodes_each():
    # Every opcode x funct3 x bits 31:25 with the register fields zero.  The
    # accepted count pins the rejected set; each accepted word, refilled with
    # random registers (and a supported CSR address for the CSR kinds), must
    # encode back to itself.
    rng = random.Random(20)
    accepted = []
    for opcode in range(128):
        for f3 in range(8):
            for top in range(128):
                word = top << 25 | f3 << 12 | opcode
                try:
                    isa.decode(word)
                except isa.UnsupportedInstr:
                    continue
                accepted.append(word)
    assert len(accepted) == 6315
    csr_addrs = tuple(isa.CSR_ADDRS)
    for word in accepted:
        is_csr = isa.decode(word).csr is not None
        for _ in range(3):
            w = word | rng.randrange(32) << 7 | rng.randrange(32) << 15 | rng.randrange(32) << 20
            if is_csr:
                w = w & 0xFFFFF | rng.choice(csr_addrs) << 20
            assert isa.encode(isa.decode(w)) == w, hex(w)
