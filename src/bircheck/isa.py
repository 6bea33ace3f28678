"""RV64 instruction decoding and a concrete reference interpreter.

Supported set: RV64I base (no FENCE/ECALL), RV64M, and CSRRW/CSRRS/CSRRC
restricted to the mscratch/mepc/mhartid/mcause/mstatus CSRs.  Values are
unsigned 64-bit ints; memory is a byte dict with absent addresses reading 0.
Misaligned accesses are performed byte-wise; there is no trap model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

ABI_NAMES = ("zero,ra,sp,gp,tp,t0,t1,t2,s0,s1,a0,a1,a2,a3,a4,a5,"
             "a6,a7,s2,s3,s4,s5,s6,s7,s8,s9,s10,s11,t3,t4,t5,t6").split(",")

CSR_ADDRS = {0x300: "mstatus", 0x340: "mscratch", 0x341: "mepc",
             0x342: "mcause", 0xF14: "mhartid"}
CSR_NAMES = {v: k for k, v in CSR_ADDRS.items()}


class IsaError(Exception):
    pass


class UnsupportedInstr(IsaError):
    def __init__(self, word, detail=""):
        extra = f" ({detail})" if detail else ""
        super().__init__(f"unsupported instruction word 0x{word:08x}{extra}")
        self.word = word


class FuelExhausted(IsaError):
    pass


class PcOutsideSlice(IsaError):
    def __init__(self, pc):
        super().__init__(f"pc 0x{pc:x} left the program slice")
        self.pc = pc


@dataclass(frozen=True)
class Instr:
    kind: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0  # sign-extended, as a Python int (may be negative)
    csr: str | None = None


def sext(val, bits):
    val &= (1 << bits) - 1
    return val - (1 << bits) if val & (1 << (bits - 1)) else val


def to_signed(val, bits=64):
    return sext(val, bits)


def u64(val):
    return val & MASK64


# ---------------------------------------------------------------------------
# Decoding

BRANCH_F3 = {0b000: "beq", 0b001: "bne", 0b100: "blt", 0b101: "bge",
             0b110: "bltu", 0b111: "bgeu"}
LOAD_F3 = {0b000: "lb", 0b001: "lh", 0b010: "lw", 0b011: "ld",
           0b100: "lbu", 0b101: "lhu", 0b110: "lwu"}
STORE_F3 = {0b000: "sb", 0b001: "sh", 0b010: "sw", 0b011: "sd"}
OPIMM_F3 = {0b000: "addi", 0b010: "slti", 0b011: "sltiu", 0b100: "xori",
            0b110: "ori", 0b111: "andi"}
OP_TABLE = {(0b000, 0b0000000): "add", (0b000, 0b0100000): "sub",
            (0b001, 0b0000000): "sll", (0b010, 0b0000000): "slt",
            (0b011, 0b0000000): "sltu", (0b100, 0b0000000): "xor",
            (0b101, 0b0000000): "srl", (0b101, 0b0100000): "sra",
            (0b110, 0b0000000): "or", (0b111, 0b0000000): "and",
            (0b000, 0b0000001): "mul", (0b001, 0b0000001): "mulh",
            (0b010, 0b0000001): "mulhsu", (0b011, 0b0000001): "mulhu",
            (0b100, 0b0000001): "div", (0b101, 0b0000001): "divu",
            (0b110, 0b0000001): "rem", (0b111, 0b0000001): "remu"}
OP32_TABLE = {(0b000, 0b0000000): "addw", (0b000, 0b0100000): "subw",
              (0b001, 0b0000000): "sllw", (0b101, 0b0000000): "srlw",
              (0b101, 0b0100000): "sraw", (0b000, 0b0000001): "mulw",
              (0b100, 0b0000001): "divw", (0b101, 0b0000001): "divuw",
              (0b110, 0b0000001): "remw", (0b111, 0b0000001): "remuw"}
CSR_F3 = {0b001: "csrrw", 0b010: "csrrs", 0b011: "csrrc"}


def decode(word) -> Instr:
    """Decode one 32-bit RV64 instruction word."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise UnsupportedInstr(word & 0xFFFFFFFF, "not a 32-bit word")
    if word & 0b11 != 0b11:
        raise UnsupportedInstr(word, "compressed encoding")
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    f3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    f7 = (word >> 25) & 0x7F
    imm_i = sext(word >> 20, 12)

    if opcode == 0b0110111:
        return Instr("lui", rd=rd, imm=sext(word & 0xFFFFF000, 32))
    if opcode == 0b0010111:
        return Instr("auipc", rd=rd, imm=sext(word & 0xFFFFF000, 32))
    if opcode == 0b1101111:
        imm = (((word >> 31) & 1) << 20) | (((word >> 12) & 0xFF) << 12) | \
              (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1)
        return Instr("jal", rd=rd, imm=sext(imm, 21))
    if opcode == 0b1100111:
        if f3 != 0:
            raise UnsupportedInstr(word)
        return Instr("jalr", rd=rd, rs1=rs1, imm=imm_i)
    if opcode == 0b1100011:
        if f3 not in BRANCH_F3:
            raise UnsupportedInstr(word)
        imm = (((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11) | \
              (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
        return Instr(BRANCH_F3[f3], rs1=rs1, rs2=rs2, imm=sext(imm, 13))
    if opcode == 0b0000011:
        if f3 not in LOAD_F3:
            raise UnsupportedInstr(word)
        return Instr(LOAD_F3[f3], rd=rd, rs1=rs1, imm=imm_i)
    if opcode == 0b0100011:
        if f3 not in STORE_F3:
            raise UnsupportedInstr(word)
        imm = ((word >> 25) << 5) | rd
        return Instr(STORE_F3[f3], rs1=rs1, rs2=rs2, imm=sext(imm, 12))
    if opcode == 0b0010011:
        if f3 in OPIMM_F3:
            return Instr(OPIMM_F3[f3], rd=rd, rs1=rs1, imm=imm_i)
        shamt = (word >> 20) & 0x3F
        top6 = (word >> 26) & 0x3F
        if f3 == 0b001 and top6 == 0:
            return Instr("slli", rd=rd, rs1=rs1, imm=shamt)
        if f3 == 0b101 and top6 == 0:
            return Instr("srli", rd=rd, rs1=rs1, imm=shamt)
        if f3 == 0b101 and top6 == 0b010000:
            return Instr("srai", rd=rd, rs1=rs1, imm=shamt)
        raise UnsupportedInstr(word)
    if opcode == 0b0011011:
        if f3 == 0b000:
            return Instr("addiw", rd=rd, rs1=rs1, imm=imm_i)
        shamt = rs2
        if f3 == 0b001 and f7 == 0:
            return Instr("slliw", rd=rd, rs1=rs1, imm=shamt)
        if f3 == 0b101 and f7 == 0:
            return Instr("srliw", rd=rd, rs1=rs1, imm=shamt)
        if f3 == 0b101 and f7 == 0b0100000:
            return Instr("sraiw", rd=rd, rs1=rs1, imm=shamt)
        raise UnsupportedInstr(word)
    if opcode == 0b0110011:
        kind = OP_TABLE.get((f3, f7))
        if kind is None:
            raise UnsupportedInstr(word)
        return Instr(kind, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == 0b0111011:
        kind = OP32_TABLE.get((f3, f7))
        if kind is None:
            raise UnsupportedInstr(word)
        return Instr(kind, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == 0b1110011:
        if f3 not in CSR_F3:
            raise UnsupportedInstr(word)
        csr_addr = (word >> 20) & 0xFFF
        name = CSR_ADDRS.get(csr_addr)
        if name is None:
            raise UnsupportedInstr(word, f"csr 0x{csr_addr:03x} outside supported set")
        return Instr(CSR_F3[f3], rd=rd, rs1=rs1, csr=name)
    raise UnsupportedInstr(word)


# ---------------------------------------------------------------------------
# Encoding (inverse of decode; used by fixtures and round-trip tests)

_OP_INV = {v: k for k, v in OP_TABLE.items()}
_OP32_INV = {v: k for k, v in OP32_TABLE.items()}
_BRANCH_INV = {v: k for k, v in BRANCH_F3.items()}
_LOAD_INV = {v: k for k, v in LOAD_F3.items()}
_STORE_INV = {v: k for k, v in STORE_F3.items()}
_OPIMM_INV = {v: k for k, v in OPIMM_F3.items()}
_CSR_INV = {v: k for k, v in CSR_F3.items()}


def encode(i: Instr) -> int:
    """Encode a supported Instr back into its 32-bit word."""
    k = i.kind
    if k == "lui":
        return ((i.imm & MASK32) & 0xFFFFF000) | (i.rd << 7) | 0b0110111
    if k == "auipc":
        return ((i.imm & MASK32) & 0xFFFFF000) | (i.rd << 7) | 0b0010111
    if k == "jal":
        imm = i.imm & ((1 << 21) - 1)
        w = (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21) | \
            (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12)
        return w | (i.rd << 7) | 0b1101111
    if k == "jalr":
        return ((i.imm & 0xFFF) << 20) | (i.rs1 << 15) | (i.rd << 7) | 0b1100111
    if k in _BRANCH_INV:
        imm = i.imm & ((1 << 13) - 1)
        w = (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25) | \
            (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7)
        return w | (i.rs2 << 20) | (i.rs1 << 15) | (_BRANCH_INV[k] << 12) | 0b1100011
    if k in _LOAD_INV:
        return ((i.imm & 0xFFF) << 20) | (i.rs1 << 15) | (_LOAD_INV[k] << 12) | (i.rd << 7) | 0b0000011
    if k in _STORE_INV:
        imm = i.imm & 0xFFF
        return ((imm >> 5) << 25) | (i.rs2 << 20) | (i.rs1 << 15) | \
               (_STORE_INV[k] << 12) | ((imm & 0x1F) << 7) | 0b0100011
    if k in _OPIMM_INV:
        return ((i.imm & 0xFFF) << 20) | (i.rs1 << 15) | (_OPIMM_INV[k] << 12) | (i.rd << 7) | 0b0010011
    if k in ("slli", "srli", "srai"):
        f3 = 0b001 if k == "slli" else 0b101
        top = 0b010000 << 26 if k == "srai" else 0
        return top | ((i.imm & 0x3F) << 20) | (i.rs1 << 15) | (f3 << 12) | (i.rd << 7) | 0b0010011
    if k == "addiw":
        return ((i.imm & 0xFFF) << 20) | (i.rs1 << 15) | (i.rd << 7) | 0b0011011
    if k in ("slliw", "srliw", "sraiw"):
        f3 = 0b001 if k == "slliw" else 0b101
        f7 = 0b0100000 << 25 if k == "sraiw" else 0
        return f7 | ((i.imm & 0x1F) << 20) | (i.rs1 << 15) | (f3 << 12) | (i.rd << 7) | 0b0011011
    if k in _OP_INV:
        f3, f7 = _OP_INV[k]
        return (f7 << 25) | (i.rs2 << 20) | (i.rs1 << 15) | (f3 << 12) | (i.rd << 7) | 0b0110011
    if k in _OP32_INV:
        f3, f7 = _OP32_INV[k]
        return (f7 << 25) | (i.rs2 << 20) | (i.rs1 << 15) | (f3 << 12) | (i.rd << 7) | 0b0111011
    if k in _CSR_INV:
        return (CSR_NAMES[i.csr] << 20) | (i.rs1 << 15) | (_CSR_INV[k] << 12) | (i.rd << 7) | 0b1110011
    raise UnsupportedInstr(0, f"cannot encode kind {k!r}")


ALU_IMM_KINDS = ("addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
                 "addiw", "slliw", "srliw", "sraiw")
ALU_REG_KINDS = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
                 "addw", "subw", "sllw", "srlw", "sraw")
MUL_DIV_KINDS = ("mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
                 "mulw", "divw", "divuw", "remw", "remuw")
LOAD_KINDS = tuple(LOAD_F3.values())
STORE_KINDS = tuple(STORE_F3.values())
BRANCH_KINDS = tuple(BRANCH_F3.values())
CSR_KINDS = ("csrrw", "csrrs", "csrrc")
ALL_KINDS = (("lui", "auipc", "jal", "jalr") + BRANCH_KINDS + LOAD_KINDS +
             STORE_KINDS + ALU_IMM_KINDS + ALU_REG_KINDS + MUL_DIV_KINDS + CSR_KINDS)


# ---------------------------------------------------------------------------
# Machine state and stepping

CSR_LIST = ("mstatus", "mscratch", "mepc", "mcause", "mhartid")


@dataclass
class MachineState:
    gpr: list = field(default_factory=lambda: [0] * 32)
    pc: int = 0
    mem: dict = field(default_factory=dict)
    csr: dict = field(default_factory=lambda: {n: 0 for n in CSR_LIST})

    def read_gpr(self, i):
        return 0 if i == 0 else self.gpr[i]

    def copy(self):
        return MachineState(list(self.gpr), self.pc, dict(self.mem), dict(self.csr))


def mem_load(mem, addr, nbytes):
    v = 0
    for k in range(nbytes):
        v |= mem.get((addr + k) & MASK64, 0) << (8 * k)
    return v


def mem_store(mem, addr, val, nbytes):
    for k in range(nbytes):
        mem[(addr + k) & MASK64] = (val >> (8 * k)) & 0xFF


def mem_load_dword(mem, addr):
    """Little-endian composition of the 8 bytes at addr (absent bytes are 0)."""
    return mem_load(mem, addr, 8)


def _div_signed(a, b):
    # quotient rounds toward zero; division by zero yields all ones
    if b == 0:
        return MASK64
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return u64(q)


def _rem_signed(a, b):
    # remainder takes the dividend's sign; remainder by zero yields the dividend
    if b == 0:
        return u64(a)
    r = abs(a) % abs(b)
    return u64(-r if a < 0 else r)


def step(s: MachineState, i: Instr) -> MachineState:
    """Execute one decoded instruction; returns the successor state."""
    n = s.copy()
    n.pc = u64(s.pc + 4)
    k = i.kind
    rs1 = s.read_gpr(i.rs1)
    rs2 = s.read_gpr(i.rs2)

    def wr(val):
        if i.rd != 0:
            n.gpr[i.rd] = u64(val)

    if k == "lui":
        wr(i.imm)
    elif k == "auipc":
        wr(s.pc + i.imm)
    elif k == "jal":
        wr(s.pc + 4)
        n.pc = u64(s.pc + i.imm)
    elif k == "jalr":
        target = u64(rs1 + i.imm) & ~1
        wr(s.pc + 4)
        n.pc = target
    elif k in BRANCH_F3.values():
        a, b = rs1, rs2
        if k in ("blt", "bge"):
            a, b = to_signed(a), to_signed(b)
        taken = {"beq": a == b, "bne": a != b, "blt": a < b, "bge": a >= b,
                 "bltu": a < b, "bgeu": a >= b}[k]
        if taken:
            n.pc = u64(s.pc + i.imm)
    elif k in LOAD_F3.values():
        addr = u64(rs1 + i.imm)
        nbytes = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}[k]
        v = mem_load(s.mem, addr, nbytes)
        if k in ("lb", "lh", "lw"):
            v = u64(sext(v, nbytes * 8))
        wr(v)
    elif k in STORE_F3.values():
        addr = u64(rs1 + i.imm)
        nbytes = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}[k]
        mem_store(n.mem, addr, rs2, nbytes)
    elif k in ("addi", "add"):
        wr(rs1 + (i.imm if k == "addi" else rs2))
    elif k == "sub":
        wr(rs1 - rs2)
    elif k in ("slti", "slt"):
        b = i.imm if k == "slti" else to_signed(rs2)
        wr(1 if to_signed(rs1) < b else 0)
    elif k in ("sltiu", "sltu"):
        b = u64(i.imm) if k == "sltiu" else rs2
        wr(1 if rs1 < b else 0)
    elif k in ("xori", "xor"):
        wr(rs1 ^ (u64(i.imm) if k == "xori" else rs2))
    elif k in ("ori", "or"):
        wr(rs1 | (u64(i.imm) if k == "ori" else rs2))
    elif k in ("andi", "and"):
        wr(rs1 & (u64(i.imm) if k == "andi" else rs2))
    elif k in ("slli", "sll"):
        sh = i.imm if k == "slli" else rs2 & 0x3F
        wr(rs1 << sh)
    elif k in ("srli", "srl"):
        sh = i.imm if k == "srli" else rs2 & 0x3F
        wr(rs1 >> sh)
    elif k in ("srai", "sra"):
        sh = i.imm if k == "srai" else rs2 & 0x3F
        wr(to_signed(rs1) >> sh)
    elif k == "addiw":
        wr(sext(rs1 + i.imm, 32))
    elif k in ("addw", "subw"):
        v = rs1 + rs2 if k == "addw" else rs1 - rs2
        wr(sext(v, 32))
    elif k in ("slliw", "sllw"):
        sh = i.imm if k == "slliw" else rs2 & 0x1F
        wr(sext((rs1 & MASK32) << sh, 32))
    elif k in ("srliw", "srlw"):
        sh = i.imm if k == "srliw" else rs2 & 0x1F
        wr(sext((rs1 & MASK32) >> sh, 32))
    elif k in ("sraiw", "sraw"):
        sh = i.imm if k == "sraiw" else rs2 & 0x1F
        wr(sext(rs1, 32) >> sh)
    elif k == "mul":
        wr(rs1 * rs2)
    elif k == "mulh":
        wr((to_signed(rs1) * to_signed(rs2)) >> 64)
    elif k == "mulhsu":
        wr((to_signed(rs1) * rs2) >> 64)
    elif k == "mulhu":
        wr((rs1 * rs2) >> 64)
    elif k == "div":
        wr(_div_signed(to_signed(rs1), to_signed(rs2)))
    elif k == "divu":
        wr(MASK64 if rs2 == 0 else rs1 // rs2)
    elif k == "rem":
        wr(_rem_signed(to_signed(rs1), to_signed(rs2)))
    elif k == "remu":
        wr(rs1 if rs2 == 0 else rs1 % rs2)
    elif k == "mulw":
        wr(sext((rs1 & MASK32) * (rs2 & MASK32), 32))
    elif k == "divw":
        a, b = sext(rs1, 32), sext(rs2, 32)
        if b == 0:
            wr(MASK64)
        else:
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            wr(sext(q & MASK32, 32))
    elif k == "divuw":
        a, b = rs1 & MASK32, rs2 & MASK32
        wr(MASK64 if b == 0 else sext(a // b, 32))
    elif k == "remw":
        a, b = sext(rs1, 32), sext(rs2, 32)
        if b == 0:
            wr(sext(a & MASK32, 32))
        else:
            r = abs(a) % abs(b)
            wr(sext((-r if a < 0 else r) & MASK32, 32))
    elif k == "remuw":
        a, b = rs1 & MASK32, rs2 & MASK32
        wr(sext(a, 32) if b == 0 else sext(a % b, 32))
    elif k == "csrrw":
        old = s.csr[i.csr]
        n.csr[i.csr] = rs1
        wr(old)
    elif k == "csrrs":
        old = s.csr[i.csr]
        if i.rs1 != 0:
            n.csr[i.csr] = old | rs1
        wr(old)
    elif k == "csrrc":
        old = s.csr[i.csr]
        if i.rs1 != 0:
            n.csr[i.csr] = old & ~rs1 & MASK64
        wr(old)
    else:
        raise UnsupportedInstr(0, f"no semantics for {k!r}")
    return n


def run(s: MachineState, prog_slice, fuel):
    """Decode+step from s (with s.pc == slice.entry) until the pc hits one of
    the slice's end addresses.  Returns (final state, steps taken)."""
    by_addr = {ri.address: ri for ri in prog_slice.instrs}
    steps = 0
    while True:
        if s.pc in prog_slice.end_addrs:
            return s, steps
        if steps >= fuel:
            raise FuelExhausted(f"pc 0x{s.pc:x} after {steps} steps")
        ri = by_addr.get(s.pc)
        if ri is None:
            raise PcOutsideSlice(s.pc)
        s = step(s, decode(ri.word))
        steps += 1


# ---------------------------------------------------------------------------
# Operand rendering (objdump-like, canonical mnemonics only)

def render_operands(i: Instr, addr=0) -> str:
    """Operand text the way objdump -d prints it, minus pseudo-instructions."""
    k = i.kind
    r = lambda n: ABI_NAMES[n]
    if k in ("lui", "auipc"):
        return f"{r(i.rd)},0x{(i.imm >> 12) & 0xFFFFF:x}"
    if k == "jal":
        return f"{r(i.rd)},{(addr + i.imm) & MASK64:x}"
    if k == "jalr":
        return f"{r(i.rd)},{i.imm}({r(i.rs1)})"
    if k in BRANCH_F3.values():
        return f"{r(i.rs1)},{r(i.rs2)},{(addr + i.imm) & MASK64:x}"
    if k in LOAD_F3.values():
        return f"{r(i.rd)},{i.imm}({r(i.rs1)})"
    if k in STORE_F3.values():
        return f"{r(i.rs2)},{i.imm}({r(i.rs1)})"
    if k in ("slli", "srli", "srai", "slliw", "srliw", "sraiw"):
        return f"{r(i.rd)},{r(i.rs1)},0x{i.imm:x}"
    if k in OPIMM_F3.values() or k == "addiw":
        return f"{r(i.rd)},{r(i.rs1)},{i.imm}"
    if k in CSR_F3.values():
        return f"{r(i.rd)},{i.csr},{r(i.rs1)}"
    return f"{r(i.rd)},{r(i.rs1)},{r(i.rs2)}"

