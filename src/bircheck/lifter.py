"""Translate decoded RV64 instructions into single BIR blocks.

State correspondence: gpr i <-> variable "x<i>" (imm64, x0 has no variable),
byte memory <-> "MEM8", each supported CSR <-> a variable of its own name,
and the pc <-> block labels.  Writes to x0 are dropped; reads of x0 lift to
the constant 0.  "tmp64" is a scratch variable used by csrrw-style swaps and
by jalr when the link register is also the jump base.

Lifting here is validated by randomized differential simulation against the
ISA interpreter (check_simulation) rather than by proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import bir, isa
from .bir import (Assign, BirBlock, BirProgram, CJmp, Jmp, binop, binpred,
                  cast, const, den, ite, load, store, unop)
from .isa import MASK32, MASK64, Instr


class LiftError(Exception):
    def __init__(self, msg, address=None):
        if address is not None:
            msg = f"0x{address:x}: {msg}"
        super().__init__(msg)
        self.address = address


MEM8 = bir.BirVar("MEM8", bir.Mem)
TMP = bir.BirVar("tmp64", bir.Imm64)
_XVARS = {i: bir.BirVar(f"x{i}", bir.Imm64) for i in range(1, 32)}
_CSRVARS = {name: bir.BirVar(name, bir.Imm64) for name in isa.CSR_LIST}


def xvar(i):
    if i == 0:
        raise LiftError("x0 has no variable")
    return _XVARS[i]


def csrvar(name):
    return _CSRVARS[name]


@dataclass
class LiftMap:
    """Label -> source instruction correspondence for a lifted slice."""
    instr_at: dict = field(default_factory=dict)  # label -> RawInstr
    exits: frozenset = frozenset()


def _c64(v):
    return const(64, v & MASK64)


def _c32(v):
    return const(32, v & MASK32)


def _reg(i):
    return _c64(0) if i == 0 else den(_XVARS[i])


def _low32(e):
    return cast("low", 32, e)


def _sx64(e):
    return cast("sext", 64, e)


def _zx64(e):
    return cast("zext", 64, e)


def _abs_mag(a, width):
    zero = const(width, 0)
    return ite(binpred("slt", a, zero), unop("chsign", a), a)


def _urem(a, b):
    # a - (a udiv b) * b; with b = 0 this collapses to a, matching the ISA rule
    return binop("minus", a, binop("mult", binop("udiv", a, b), b))


def _div_signed(a, b, width):
    zero = const(width, 0)
    ones = const(width, (1 << width) - 1)
    q = binop("udiv", _abs_mag(a, width), _abs_mag(b, width))
    sign_diff = binop("xor", binpred("slt", a, zero), binpred("slt", b, zero))
    return ite(binpred("eq", b, zero), ones, ite(sign_diff, unop("chsign", q), q))


def _rem_signed(a, b, width):
    zero = const(width, 0)
    r = _urem(_abs_mag(a, width), _abs_mag(b, width))
    return ite(binpred("slt", a, zero), unop("chsign", r), r)


def _mulhu64(a, b):
    m32 = _c64(MASK32)
    c32 = _c64(32)
    ah, al = binop("lshr", a, c32), binop("and", a, m32)
    bh, bl = binop("lshr", b, c32), binop("and", b, m32)
    lo = binop("mult", al, bl)
    cross = binop("plus", binop("mult", ah, bl), binop("lshr", lo, c32))
    cross2 = binop("plus", binop("mult", al, bh), binop("and", cross, m32))
    return binop("plus",
                 binop("plus", binop("mult", ah, bh), binop("lshr", cross, c32)),
                 binop("lshr", cross2, c32))


def _sign_correction(hi, x, y):
    # subtract y when x is negative (signed/unsigned high-product fixups)
    zero = _c64(0)
    return binop("minus", hi, ite(binpred("slt", x, zero), y, zero))


def lift_instr(i: Instr, addr: int, comment: str = "") -> BirBlock:
    """One BIR block encoding the register/memory effect of `i` at `addr`."""
    k = i.kind
    stmts = []
    end = Jmp(addr + 4)

    def assign_rd(exp):
        if i.rd != 0:
            stmts.append(Assign(_XVARS[i.rd], exp))

    rs1 = _reg(i.rs1)
    rs2 = _reg(i.rs2)

    if k == "lui":
        assign_rd(_c64(i.imm))
    elif k == "auipc":
        assign_rd(_c64(addr + i.imm))
    elif k == "jal":
        assign_rd(_c64(addr + 4))
        end = Jmp((addr + i.imm) & MASK64)
    elif k == "jalr":
        target = binop("and", binop("plus", rs1, _c64(i.imm)), _c64(~1))
        if i.rd == 0:
            end = Jmp(target)
        elif i.rd == i.rs1:
            stmts.append(Assign(TMP, target))
            assign_rd(_c64(addr + 4))
            end = Jmp(den(TMP))
        else:
            assign_rd(_c64(addr + 4))
            end = Jmp(target)
    elif k in isa.BRANCH_KINDS:
        taken = (addr + i.imm) & MASK64
        fall = addr + 4
        if k == "beq":
            end = CJmp(binpred("eq", rs1, rs2), taken, fall)
        elif k == "bne":
            end = CJmp(binpred("ne", rs1, rs2), taken, fall)
        elif k == "blt":
            end = CJmp(binpred("slt", rs1, rs2), taken, fall)
        elif k == "bge":
            end = CJmp(binpred("slt", rs1, rs2), fall, taken)
        elif k == "bltu":
            end = CJmp(binpred("ult", rs1, rs2), taken, fall)
        else:  # bgeu
            end = CJmp(binpred("ult", rs1, rs2), fall, taken)
    elif k in isa.LOAD_KINDS:
        width = {"lb": 8, "lbu": 8, "lh": 16, "lhu": 16, "lw": 32, "lwu": 32, "ld": 64}[k]
        v = load(den(MEM8), binop("plus", rs1, _c64(i.imm)), width)
        if width < 64:
            v = _sx64(v) if k in ("lb", "lh", "lw") else _zx64(v)
        assign_rd(v)
    elif k in isa.STORE_KINDS:
        width = {"sb": 8, "sh": 16, "sw": 32, "sd": 64}[k]
        v = rs2 if width == 64 else cast("low", width, rs2)
        stmts.append(Assign(MEM8, store(den(MEM8),
                                        binop("plus", rs1, _c64(i.imm)), v)))
    elif k == "addi":
        assign_rd(binop("plus", rs1, _c64(i.imm)))
    elif k == "slti":
        assign_rd(_zx64(binpred("slt", rs1, _c64(i.imm))))
    elif k == "sltiu":
        assign_rd(_zx64(binpred("ult", rs1, _c64(i.imm))))
    elif k == "xori":
        assign_rd(binop("xor", rs1, _c64(i.imm)))
    elif k == "ori":
        assign_rd(binop("or", rs1, _c64(i.imm)))
    elif k == "andi":
        assign_rd(binop("and", rs1, _c64(i.imm)))
    elif k == "slli":
        assign_rd(binop("shl", rs1, _c64(i.imm)))
    elif k == "srli":
        assign_rd(binop("lshr", rs1, _c64(i.imm)))
    elif k == "srai":
        assign_rd(binop("ashr", rs1, _c64(i.imm)))
    elif k == "addiw":
        assign_rd(_sx64(binop("plus", _low32(rs1), _c32(i.imm))))
    elif k == "slliw":
        assign_rd(_sx64(binop("shl", _low32(rs1), _c32(i.imm))))
    elif k == "srliw":
        assign_rd(_sx64(binop("lshr", _low32(rs1), _c32(i.imm))))
    elif k == "sraiw":
        assign_rd(_sx64(binop("ashr", _low32(rs1), _c32(i.imm))))
    elif k in ("add", "sub", "xor", "or", "and"):
        op = {"add": "plus", "sub": "minus", "xor": "xor", "or": "or", "and": "and"}[k]
        assign_rd(binop(op, rs1, rs2))
    elif k in ("sll", "srl", "sra"):
        op = {"sll": "shl", "srl": "lshr", "sra": "ashr"}[k]
        assign_rd(binop(op, rs1, binop("and", rs2, _c64(0x3F))))
    elif k == "slt":
        assign_rd(_zx64(binpred("slt", rs1, rs2)))
    elif k == "sltu":
        assign_rd(_zx64(binpred("ult", rs1, rs2)))
    elif k in ("addw", "subw"):
        op = "plus" if k == "addw" else "minus"
        assign_rd(_sx64(binop(op, _low32(rs1), _low32(rs2))))
    elif k in ("sllw", "srlw", "sraw"):
        op = {"sllw": "shl", "srlw": "lshr", "sraw": "ashr"}[k]
        amount = binop("and", _low32(rs2), _c32(0x1F))
        assign_rd(_sx64(binop(op, _low32(rs1), amount)))
    elif k == "mul":
        assign_rd(binop("mult", rs1, rs2))
    elif k == "mulhu":
        assign_rd(_mulhu64(rs1, rs2))
    elif k == "mulh":
        hi = _sign_correction(_mulhu64(rs1, rs2), rs1, rs2)
        assign_rd(_sign_correction(hi, rs2, rs1))
    elif k == "mulhsu":
        assign_rd(_sign_correction(_mulhu64(rs1, rs2), rs1, rs2))
    elif k == "div":
        assign_rd(_div_signed(rs1, rs2, 64))
    elif k == "divu":
        assign_rd(ite(binpred("eq", rs2, _c64(0)), _c64(MASK64),
                      binop("udiv", rs1, rs2)))
    elif k == "rem":
        assign_rd(_rem_signed(rs1, rs2, 64))
    elif k == "remu":
        assign_rd(_urem(rs1, rs2))
    elif k == "mulw":
        assign_rd(_sx64(binop("mult", _low32(rs1), _low32(rs2))))
    elif k == "divw":
        assign_rd(_sx64(_div_signed(_low32(rs1), _low32(rs2), 32)))
    elif k == "divuw":
        assign_rd(_sx64(ite(binpred("eq", _low32(rs2), _c32(0)), _c32(MASK32),
                            binop("udiv", _low32(rs1), _low32(rs2)))))
    elif k == "remw":
        assign_rd(_sx64(_rem_signed(_low32(rs1), _low32(rs2), 32)))
    elif k == "remuw":
        assign_rd(_sx64(_urem(_low32(rs1), _low32(rs2))))
    elif k == "csrrw":
        c = csrvar(i.csr)
        if i.rd == 0:
            stmts.append(Assign(c, rs1))
        else:
            stmts.append(Assign(TMP, den(c)))
            stmts.append(Assign(c, rs1))
            assign_rd(den(TMP))
    elif k in ("csrrs", "csrrc"):
        c = csrvar(i.csr)
        stmts.append(Assign(TMP, den(c)))
        if i.rs1 != 0:
            if k == "csrrs":
                stmts.append(Assign(c, binop("or", den(TMP), rs1)))
            else:
                stmts.append(Assign(c, binop("and", den(TMP), unop("not", rs1))))
        assign_rd(den(TMP))
        if i.rd == 0 and i.rs1 == 0:
            stmts = []  # fully inert
    else:
        raise LiftError(f"unsupported instruction kind {k!r}", addr)

    if not comment:
        ops = isa.render_operands(i, addr)
        comment = f"{isa.encode(i):08x} ({k}{' ' + ops if ops else ''})"
    return BirBlock(addr, comment, tuple(stmts), end)


def lift_slice(prog_slice) -> tuple[BirProgram, LiftMap]:
    """One block per slice instruction in address order; slice end addresses
    become exit labels (labels with no block)."""
    blocks = []
    lm = LiftMap(exits=frozenset(prog_slice.end_addrs))
    for ri in prog_slice.instrs:
        try:
            instr = isa.decode(ri.word)
        except isa.UnsupportedInstr as e:
            raise LiftError(str(e), ri.address) from e
        ops = f" {ri.operand_text}" if ri.operand_text else ""
        comment = f"{ri.word:08x} ({ri.mnemonic}{ops})"
        blocks.append(lift_instr(instr, ri.address, comment))
        lm.instr_at[ri.address] = ri
    return BirProgram(blocks), lm


# ---------------------------------------------------------------------------
# Differential simulation against the ISA interpreter

SPECIAL_VALUES = (0, 1, 2, 0xFF, 0x8000000000000000, 0xFFFFFFFFFFFFFFFF,
                  0x7FFFFFFFFFFFFFFF, 0x80000000, 0xFFFFFFFF, 0x100000000)


def random_machine_state(rng, addr, instr=None):
    s = isa.MachineState(pc=addr)
    for r in range(1, 32):
        if rng.random() < 0.25:
            s.gpr[r] = rng.choice(SPECIAL_VALUES)
        else:
            s.gpr[r] = rng.getrandbits(64)
    for name in isa.CSR_LIST:
        s.csr[name] = rng.getrandbits(64)
    for _ in range(4):
        s.mem[rng.getrandbits(64)] = rng.getrandbits(8)
    if instr is not None and instr.kind in isa.LOAD_KINDS:
        base = (s.read_gpr(instr.rs1) + instr.imm) & MASK64
        for kk in range(8):
            s.mem[(base + kk) & MASK64] = rng.getrandbits(8)
    return s


def machine_to_env(s: isa.MachineState) -> dict:
    """The BIR environment image of an ISA machine state."""
    env = {_XVARS[i]: s.gpr[i] for i in range(1, 32)}
    env[MEM8] = dict(s.mem)
    for name in isa.CSR_LIST:
        env[_CSRVARS[name]] = s.csr[name]
    env[TMP] = 0
    return env


def _strip_zero(mem):
    return {a: b for a, b in mem.items() if b != 0}


@dataclass
class SimReport:
    kind: str
    addr: int
    trials: int
    failures: list

    @property
    def passed(self):
        return not self.failures


def check_simulation(i: Instr, addr: int, trials: int, seed: int) -> SimReport:
    """Run `trials` random machine states through isa.step and through the
    lifted block, and compare registers, CSRs, memory delta and successor pc.
    Failures carry the offending state for replay."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    block = lift_instr(i, addr)
    failures = []
    for t in range(trials):
        s0 = random_machine_state(rng, addr, i)
        s1 = isa.step(s0, i)
        env0 = machine_to_env(s0)
        env1, nxt = bir.exec_block(block, env0)
        mismatch = {}
        for r in range(1, 32):
            if env1[_XVARS[r]] != s1.gpr[r]:
                mismatch[f"x{r}"] = (s1.gpr[r], env1[_XVARS[r]])
        for name in isa.CSR_LIST:
            if env1[_CSRVARS[name]] != s1.csr[name]:
                mismatch[name] = (s1.csr[name], env1[_CSRVARS[name]])
        if _strip_zero(env1[MEM8]) != _strip_zero(s1.mem):
            mismatch["MEM8"] = (_strip_zero(s1.mem), _strip_zero(env1[MEM8]))
        if nxt != s1.pc:
            mismatch["pc"] = (s1.pc, nxt)
        if mismatch:
            failures.append({"trial": t, "state": s0, "fields": mismatch})
            if len(failures) >= 5:
                break
    return SimReport(i.kind, addr, trials, failures)


def sample_instr(kind: str, rng) -> Instr:
    """A random well-formed instruction of the given kind (for the per-kind
    simulation sweep): random registers, an immediate drawn over the bits its
    format encodes, and a supported CSR for the CSR kinds."""
    regs = {"rd": rng.randrange(32), "rs1": rng.randrange(32), "rs2": rng.randrange(32)}
    fmt = isa.INSTRS[kind][0]
    fields = {r: regs[r] for r in isa.REGS[fmt]}
    pieces, sign = isa.IMM_LAYOUT[fmt]
    if pieces:
        mask = sum(((1 << width) - 1) << ibit for _, ibit, width in pieces)
        fields["imm"] = (isa.sext(rng.getrandbits(sign) & mask, sign) if sign
                         else rng.randrange(mask + 1))
    if fmt == "CSR":
        fields["csr"] = rng.choice(isa.CSR_LIST)
    return Instr(kind, **fields)


SWEEP_VARIANTS = 4


def simulation_sweep(trials_per_kind: int, seed: int):
    """check_simulation over every supported instruction kind, with
    SWEEP_VARIANTS random operand shapes per kind.  Returns the list of
    SimReports."""
    rng = random.Random(seed)
    reports = []
    addr = 0x10000
    for kind in isa.ALL_KINDS:
        per_variant = max(1, trials_per_kind // SWEEP_VARIANTS)
        for _ in range(SWEEP_VARIANTS):
            instr = sample_instr(kind, rng)
            reports.append(check_simulation(instr, addr, per_variant,
                                            rng.getrandbits(32)))
            addr += 4
    return reports
