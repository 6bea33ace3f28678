"""RV64 instruction decoding and a concrete reference interpreter.

Supported set: RV64I base (no FENCE/ECALL), RV64M, and CSRRW/CSRRS/CSRRC
restricted to the mscratch/mepc/mhartid/mcause/mstatus CSRs.  Values are
unsigned 64-bit ints; memory is a byte dict with absent addresses reading 0.
Misaligned accesses are performed byte-wise; there is no trap model.

One table describes the encodings.  INSTRS maps each kind to its format,
opcode, funct3 and top bits (bits 31:25, or 31:26 for the SH6 shifts);
IMM_LAYOUT says where each format keeps its immediate and whether it is
signed, and REGS which of rd/rs1/rs2 it has.  The formats are the base R, I,
S, B, U and J of the RISC-V Unprivileged ISA spec (chapter 2), plus IM (I
printed as `rd,imm(rs1)`: jalr and the loads), SH6/SH5 (the 64- and 32-bit
immediate shifts) and CSR (a CSR address in the immediate's place).
decode, encode, render_operands, the kind tuples and lifter.sample_instr all
read it; step keeps its own per-kind semantics.
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
# The instruction table

# kind -> (format, opcode, funct3 or None, top bits or None), in the order
# ALL_KINDS lists them.  The top bits are bits 31:25 for R and SH5, and
# bits 31:26 for SH6 (bit 25 is the shift amount's sixth bit there).
INSTRS = {
    "lui": ("U", 0b0110111, None, None),
    "auipc": ("U", 0b0010111, None, None),
    "jal": ("J", 0b1101111, None, None),
    "jalr": ("IM", 0b1100111, 0b000, None),
    "beq": ("B", 0b1100011, 0b000, None),
    "bne": ("B", 0b1100011, 0b001, None),
    "blt": ("B", 0b1100011, 0b100, None),
    "bge": ("B", 0b1100011, 0b101, None),
    "bltu": ("B", 0b1100011, 0b110, None),
    "bgeu": ("B", 0b1100011, 0b111, None),
    "lb": ("IM", 0b0000011, 0b000, None),
    "lh": ("IM", 0b0000011, 0b001, None),
    "lw": ("IM", 0b0000011, 0b010, None),
    "ld": ("IM", 0b0000011, 0b011, None),
    "lbu": ("IM", 0b0000011, 0b100, None),
    "lhu": ("IM", 0b0000011, 0b101, None),
    "lwu": ("IM", 0b0000011, 0b110, None),
    "sb": ("S", 0b0100011, 0b000, None),
    "sh": ("S", 0b0100011, 0b001, None),
    "sw": ("S", 0b0100011, 0b010, None),
    "sd": ("S", 0b0100011, 0b011, None),
    "addi": ("I", 0b0010011, 0b000, None),
    "slti": ("I", 0b0010011, 0b010, None),
    "sltiu": ("I", 0b0010011, 0b011, None),
    "xori": ("I", 0b0010011, 0b100, None),
    "ori": ("I", 0b0010011, 0b110, None),
    "andi": ("I", 0b0010011, 0b111, None),
    "slli": ("SH6", 0b0010011, 0b001, 0b000000),
    "srli": ("SH6", 0b0010011, 0b101, 0b000000),
    "srai": ("SH6", 0b0010011, 0b101, 0b010000),
    "addiw": ("I", 0b0011011, 0b000, None),
    "slliw": ("SH5", 0b0011011, 0b001, 0b0000000),
    "srliw": ("SH5", 0b0011011, 0b101, 0b0000000),
    "sraiw": ("SH5", 0b0011011, 0b101, 0b0100000),
    "add": ("R", 0b0110011, 0b000, 0b0000000),
    "sub": ("R", 0b0110011, 0b000, 0b0100000),
    "sll": ("R", 0b0110011, 0b001, 0b0000000),
    "slt": ("R", 0b0110011, 0b010, 0b0000000),
    "sltu": ("R", 0b0110011, 0b011, 0b0000000),
    "xor": ("R", 0b0110011, 0b100, 0b0000000),
    "srl": ("R", 0b0110011, 0b101, 0b0000000),
    "sra": ("R", 0b0110011, 0b101, 0b0100000),
    "or": ("R", 0b0110011, 0b110, 0b0000000),
    "and": ("R", 0b0110011, 0b111, 0b0000000),
    "addw": ("R", 0b0111011, 0b000, 0b0000000),
    "subw": ("R", 0b0111011, 0b000, 0b0100000),
    "sllw": ("R", 0b0111011, 0b001, 0b0000000),
    "srlw": ("R", 0b0111011, 0b101, 0b0000000),
    "sraw": ("R", 0b0111011, 0b101, 0b0100000),
    "mul": ("R", 0b0110011, 0b000, 0b0000001),
    "mulh": ("R", 0b0110011, 0b001, 0b0000001),
    "mulhsu": ("R", 0b0110011, 0b010, 0b0000001),
    "mulhu": ("R", 0b0110011, 0b011, 0b0000001),
    "div": ("R", 0b0110011, 0b100, 0b0000001),
    "divu": ("R", 0b0110011, 0b101, 0b0000001),
    "rem": ("R", 0b0110011, 0b110, 0b0000001),
    "remu": ("R", 0b0110011, 0b111, 0b0000001),
    "mulw": ("R", 0b0111011, 0b000, 0b0000001),
    "divw": ("R", 0b0111011, 0b100, 0b0000001),
    "divuw": ("R", 0b0111011, 0b101, 0b0000001),
    "remw": ("R", 0b0111011, 0b110, 0b0000001),
    "remuw": ("R", 0b0111011, 0b111, 0b0000001),
    "csrrw": ("CSR", 0b1110011, 0b001, None),
    "csrrs": ("CSR", 0b1110011, 0b010, None),
    "csrrc": ("CSR", 0b1110011, 0b011, None),
}

# format -> ((word bit, imm bit, width) pieces, width to sign-extend from);
# a sign width of 0 means the immediate is unsigned.
IMM_LAYOUT = {
    "R": ((), 0),
    "I": (((20, 0, 12),), 12),
    "IM": (((20, 0, 12),), 12),
    "S": (((25, 5, 7), (7, 0, 5)), 12),
    "B": (((31, 12, 1), (7, 11, 1), (25, 5, 6), (8, 1, 4)), 13),
    "U": (((12, 12, 20),), 32),
    "J": (((31, 20, 1), (12, 12, 8), (20, 11, 1), (21, 1, 10)), 21),
    "SH6": (((20, 0, 6),), 0),
    "SH5": (((20, 0, 5),), 0),
    "CSR": ((), 0),
}

# format -> the register fields it has; CSR also has the CSR address in
# bits 31:20.
REGS = {
    "R": ("rd", "rs1", "rs2"),
    "I": ("rd", "rs1"),
    "IM": ("rd", "rs1"),
    "S": ("rs1", "rs2"),
    "B": ("rs1", "rs2"),
    "U": ("rd",),
    "J": ("rd",),
    "SH6": ("rd", "rs1"),
    "SH5": ("rd", "rs1"),
    "CSR": ("rd", "rs1"),
}

_REG_SHIFT = {"rd": 7, "rs1": 15, "rs2": 20}
_TOP_SHIFT = {"R": 25, "SH5": 25, "SH6": 26}

# objdump -d operand text per format (canonical mnemonics only)
_OPERANDS = {
    "R": "{rd},{rs1},{rs2}",
    "I": "{rd},{rs1},{imm}",
    "IM": "{rd},{imm}({rs1})",
    "S": "{rs2},{imm}({rs1})",
    "B": "{rs1},{rs2},{target:x}",
    "U": "{rd},{upper:#x}",
    "J": "{rd},{target:x}",
    "SH6": "{rd},{rs1},{imm:#x}",
    "SH5": "{rd},{rs1},{imm:#x}",
    "CSR": "{rd},{csr},{rs1}",
}

ALL_KINDS = tuple(INSTRS)
BRANCH_KINDS = tuple(k for k, row in INSTRS.items() if row[0] == "B")
LOAD_KINDS = tuple(k for k, row in INSTRS.items() if row[1] == 0b0000011)
STORE_KINDS = tuple(k for k, row in INSTRS.items() if row[0] == "S")


def _decode_index():
    """(opcode, funct3 or None) -> (format, {top bits or None: kind}).  The
    kinds sharing an opcode and funct3 share a format, which says which top
    field tells them apart."""
    index = {}
    for kind, (fmt, opcode, f3, top) in INSTRS.items():
        index.setdefault((opcode, f3), (fmt, {}))[1][top] = kind
    return index


_DECODE = _decode_index()


def decode(word) -> Instr:
    """Decode one 32-bit RV64 instruction word."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise UnsupportedInstr(word & 0xFFFFFFFF, "not a 32-bit word")
    if word & 0b11 != 0b11:
        raise UnsupportedInstr(word, "compressed encoding")
    opcode = word & 0x7F
    group = _DECODE.get((opcode, (word >> 12) & 0x7)) or _DECODE.get((opcode, None))
    if group is None:
        raise UnsupportedInstr(word)
    fmt, kinds = group
    kind = kinds.get(word >> _TOP_SHIFT[fmt] if fmt in _TOP_SHIFT else None)
    if kind is None:
        raise UnsupportedInstr(word)
    pieces, sign = IMM_LAYOUT[fmt]
    imm = 0
    for wbit, ibit, width in pieces:
        imm |= ((word >> wbit) & ((1 << width) - 1)) << ibit
    csr = None
    if fmt == "CSR":
        csr = CSR_ADDRS.get(word >> 20)
        if csr is None:
            raise UnsupportedInstr(word, f"csr 0x{word >> 20:03x} outside supported set")
    regs = {r: (word >> _REG_SHIFT[r]) & 0x1F for r in REGS[fmt]}
    return Instr(kind, imm=sext(imm, sign) if sign else imm, csr=csr, **regs)


def encode(i: Instr) -> int:
    """Encode a supported Instr back into its 32-bit word (the inverse of
    decode; used by fixtures and round-trip tests)."""
    if i.kind not in INSTRS:
        raise UnsupportedInstr(0, f"cannot encode kind {i.kind!r}")
    fmt, opcode, f3, top = INSTRS[i.kind]
    w = opcode | (f3 or 0) << 12 | (top or 0) << _TOP_SHIFT.get(fmt, 0)
    for r in REGS[fmt]:
        w |= getattr(i, r) << _REG_SHIFT[r]
    for wbit, ibit, width in IMM_LAYOUT[fmt][0]:
        w |= ((i.imm >> ibit) & ((1 << width) - 1)) << wbit
    if fmt == "CSR":
        w |= CSR_NAMES[i.csr] << 20
    return w


def render_operands(i: Instr, addr=0) -> str:
    """Operand text the way objdump -d prints it, minus pseudo-instructions."""
    r = ABI_NAMES
    return _OPERANDS[INSTRS[i.kind][0]].format(
        rd=r[i.rd], rs1=r[i.rs1], rs2=r[i.rs2], imm=i.imm, csr=i.csr,
        target=(addr + i.imm) & MASK64, upper=(i.imm >> 12) & 0xFFFFF)


# ---------------------------------------------------------------------------
# Machine state and stepping

CSR_LIST = tuple(CSR_ADDRS.values())


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
    elif k in BRANCH_KINDS:
        a, b = rs1, rs2
        if k in ("blt", "bge"):
            a, b = to_signed(a), to_signed(b)
        taken = {"beq": a == b, "bne": a != b, "blt": a < b, "bge": a >= b,
                 "bltu": a < b, "bgeu": a >= b}[k]
        if taken:
            n.pc = u64(s.pc + i.imm)
    elif k in LOAD_KINDS:
        addr = u64(rs1 + i.imm)
        nbytes = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}[k]
        v = mem_load(s.mem, addr, nbytes)
        if k in ("lb", "lh", "lw"):
            v = u64(sext(v, nbytes * 8))
        wr(v)
    elif k in STORE_KINDS:
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
