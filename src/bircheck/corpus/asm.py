"""Tiny assembler helpers for building objdump-style fixture listings.

Instructions are described as isa.Instr values; the renderer prints the lines
the way `objdump -d` would, including the usual pseudo-instruction spellings
(ret, nop, mv, li, j) so listings look like real tool output.  The hex word
is always the encoding of the Instr, so the text is advisory only.
"""

from __future__ import annotations

from .. import isa
from ..disasm import RawInstr, format_instr_line
from ..isa import Instr


def _pseudo(i: Instr, addr: int):
    r = isa.ABI_NAMES
    if i.kind == "jalr" and i.rd == 0 and i.rs1 == 1 and i.imm == 0:
        return "ret", ""
    if i.kind == "addi" and i.rd == 0 and i.rs1 == 0 and i.imm == 0:
        return "nop", ""
    if i.kind == "addi" and i.imm == 0 and i.rs1 != 0:
        return "mv", f"{r[i.rd]},{r[i.rs1]}"
    if i.kind == "addi" and i.rs1 == 0:
        return "li", f"{r[i.rd]},{i.imm}"
    if i.kind == "jal" and i.rd == 0:
        return "j", f"{(addr + i.imm) & isa.MASK64:x}"
    return None


def render_line(i: Instr, addr: int, pseudo=True) -> str:
    p = _pseudo(i, addr) if pseudo else None
    if p:
        mnem, ops = p
    else:
        mnem, ops = i.kind, isa.render_operands(i, addr)
    return format_instr_line(RawInstr(addr, isa.encode(i), mnem, ops))


def listing(name: str, base: int, instrs, section=".text", pseudo=True) -> str:
    """A complete objdump-style listing for one symbol."""
    lines = [f"{name}:     file format elf64-littleriscv",
             "Disassembly of section " + section + ":",
             "",
             f"{base:016x} <{name}>:"]
    addr = base
    for i in instrs:
        lines.append(render_line(i, addr, pseudo))
        addr += 4
    return "\n".join(lines) + "\n"


# short constructors --------------------------------------------------------

def addi(rd, rs1, imm):
    return Instr("addi", rd=rd, rs1=rs1, imm=imm)


def li(rd, imm):
    return addi(rd, 0, imm)


def mv(rd, rs1):
    return addi(rd, rs1, 0)


def nop():
    return addi(0, 0, 0)


def ret():
    return Instr("jalr", rd=0, rs1=1, imm=0)


def op(kind, rd, rs1, rs2):
    return Instr(kind, rd=rd, rs1=rs1, rs2=rs2)


def opi(kind, rd, rs1, imm):
    return Instr(kind, rd=rd, rs1=rs1, imm=imm)


def ld(rd, off, rs1):
    return Instr("ld", rd=rd, rs1=rs1, imm=off)


def sd(rs2, off, rs1):
    return Instr("sd", rs2=rs2, rs1=rs1, imm=off)


def beq(rs1, rs2, off):
    return Instr("beq", rs1=rs1, rs2=rs2, imm=off)


def bne(rs1, rs2, off):
    return Instr("bne", rs1=rs1, rs2=rs2, imm=off)


def bgeu(rs1, rs2, off):
    return Instr("bgeu", rs1=rs1, rs2=rs2, imm=off)


def jal(rd, off):
    return Instr("jal", rd=rd, imm=off)


def j(off):
    return jal(0, off)


def lui(rd, imm20):
    return Instr("lui", rd=rd, imm=isa.sext(imm20 << 12, 32))


def csrrw(rd, csr, rs1):
    return Instr("csrrw", rd=rd, rs1=rs1, csr=csr)


def csrrs(rd, csr, rs1):
    return Instr("csrrs", rd=rd, rs1=rs1, csr=csr)
