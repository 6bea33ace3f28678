"""Builders for the checked-in fixture corpus.

Each builder returns (listing text, contract text or None).  Running this
module as a script regenerates the data/ files; a test asserts the committed
files match the builders, so edits happen here.
"""

from __future__ import annotations

import os

from ..contracts import (RBin, RCmp, RConst, RCsr, RGpr, RMemLoad, RParam,
                         RUn, Param, RiscvContract, print_contract)
from . import asm
from .asm import (addi, bgeu, bne, csrrs, csrrw, j, ld, li, lui, mv, nop,
                  op, opi, ret, sd)

A0, A1, A2, A3, A4, A5 = 10, 11, 12, 13, 14, 15
T0, T1, T2, T3, T4, T5, T6 = 5, 6, 7, 28, 29, 30, 31
SP, S0, RA = 2, 8, 1

MASK32 = RConst(0xFFFFFFFF)


class Prog:
    """Two-pass mini assembler with named labels for branch targets."""

    def __init__(self, base):
        self.base = base
        self.items = []   # (Instr | (factory, label), )
        self.labels = {}

    def label(self, name):
        self.labels[name] = len(self.items)

    def emit(self, instr):
        self.items.append(instr)

    def branch(self, factory, target):
        self.items.append((factory, target))

    def addr_of(self, name):
        return self.base + 4 * self.labels[name]

    def assemble(self):
        out = []
        for idx, item in enumerate(self.items):
            if isinstance(item, tuple):
                factory, target = item
                off = 4 * (self.labels[target] - idx)
                out.append(factory(off))
            else:
                out.append(item)
        return out


def _eq(a, b):
    return RCmp("eq", a, b)


# ---------------------------------------------------------------------------

INCR_LISTING = """\
incr:     file format elf64-littleriscv
Disassembly of section .text:

0000000000010488 <incr>:
   10488:\t00150513          \taddi\ta0,a0,1
   1048c:\t00008067          \tret
"""


def build_incr():
    rc = RiscvContract(
        name="incr", entry=0x10488, endpoints=frozenset({0x1048C}),
        pre=(_eq(RGpr(10), RParam("pre_x10")),),
        post={0x1048C: (_eq(RGpr(10), RBin("add", RParam("pre_x10"), RConst(1))),)},
        params=(Param("pre_x10"),))
    return INCR_LISTING, print_contract(rc)


def build_incr4():
    base = 0x10500
    instrs = [mv(A5, A0), addi(A5, A5, 1), mv(A0, A5), ret()]
    rc = RiscvContract(
        name="incr4", entry=base, endpoints=frozenset({base + 12}),
        pre=(_eq(RGpr(10), RParam("pre_x10")),),
        post={base + 12: (_eq(RGpr(10), RBin("add", RParam("pre_x10"), RConst(1))),)},
        params=(Param("pre_x10"),))
    return asm.listing("incr4", base, instrs), print_contract(rc)


def build_mod2():
    base = 0x10600
    instrs = [mv(A5, A0), opi("andi", A5, A5, 1), mv(A0, A5), ret()]
    rc = RiscvContract(
        name="mod2", entry=base, endpoints=frozenset({base + 12}),
        pre=(_eq(RGpr(10), RParam("pre_x10")),),
        post={base + 12: (_eq(RGpr(10), RBin("and", RParam("pre_x10"), RConst(1))),)},
        params=(Param("pre_x10"),))
    return asm.listing("mod2", base, instrs), print_contract(rc)


def build_swap():
    base = 0x10700
    instrs = [mv(T0, A0), mv(T1, A1), ld(T2, 0, T0), ld(T3, 0, T1),
              sd(T3, 0, T0), sd(T2, 0, T1), nop(), ret()]
    p = RParam("pre_p")
    rc = RiscvContract(
        name="swap", entry=base, endpoints=frozenset({base + 28}),
        pre=(_eq(RGpr(10), p),
             _eq(RGpr(11), RBin("add", p, RConst(8))),
             _eq(RMemLoad(p), RParam("pre_v0")),
             _eq(RMemLoad(RBin("add", p, RConst(8))), RParam("pre_v1"))),
        post={base + 28: (_eq(RMemLoad(p), RParam("pre_v1")),
                          _eq(RMemLoad(RBin("add", p, RConst(8))), RParam("pre_v0")))},
        params=(Param("pre_p"), Param("pre_v0"), Param("pre_v1")))
    return asm.listing("swap", base, instrs), print_contract(rc)


def build_isqrt():
    base = 0x10800
    p = Prog(base)
    p.emit(addi(SP, SP, -32))
    p.emit(sd(S0, 24, SP))
    p.emit(addi(S0, SP, 32))
    p.emit(sd(A0, -24, S0))
    p.emit(ld(A5, -24, S0))
    p.emit(li(A0, 0))
    p.emit(li(A3, 1))
    p.branch(lambda off: j(off), "test")
    p.label("body")
    p.emit(op("sub", A5, A5, A3))
    p.emit(addi(A3, A3, 2))
    p.emit(addi(A0, A0, 1))
    p.label("test")
    p.branch(lambda off: bgeu(A5, A3, off), "body")
    p.emit(ld(S0, 24, SP))
    p.emit(addi(SP, SP, 32))
    p.emit(ret())
    instrs = p.assemble()
    assert len(instrs) == 15
    end = base + 4 * (len(instrs) - 1)
    x, r = RParam("pre_x10"), RGpr(10)
    rc = RiscvContract(
        name="isqrt", entry=base, endpoints=frozenset({end}),
        pre=(_eq(RGpr(10), x),
             RCmp("ult", x, RConst(16)),
             _eq(RGpr(2), RParam("pre_x2")),
             _eq(RGpr(8), RParam("pre_x8"))),
        post={end: (RCmp("ule", RBin("mul", r, r), x),
                    RCmp("ult", x, RBin("mul", RBin("add", r, RConst(1)),
                                        RBin("add", r, RConst(1)))),
                    _eq(RGpr(2), RParam("pre_x2")),
                    _eq(RGpr(8), RParam("pre_x8")))},
        params=(Param("pre_x10"), Param("pre_x2"), Param("pre_x8")))
    return asm.listing("isqrt", base, instrs), print_contract(rc)


def build_motor():
    """A 120-instruction command dispatcher: 16 compare/branch cases, each
    computing a differently-shaped duty value that is finally masked to 12
    bits, so every path satisfies the bounded-output contract."""
    base = 0x11000
    p = Prog(base)
    p.emit(mv(T3, A0))
    p.emit(mv(T4, A1))
    p.emit(li(T5, 0))
    p.emit(nop())
    p.emit(nop())
    shapes = [
        lambda k: [op("add", T1, T4, T3), opi("slli", T1, T1, (k % 5) + 1),
                   op("xor", T1, T1, T4)],
        lambda k: [op("sub", T1, T4, T3), opi("srli", T1, T1, (k % 7) + 1),
                   op("or", T1, T1, T3)],
        lambda k: [op("xor", T1, T4, T3), addi(T1, T1, 3 * k + 1),
                   op("and", T1, T1, T4)],
        lambda k: [op("addw", T1, T4, T3), opi("xori", T1, T1, 0x55),
                   op("add", T1, T1, T3)],
    ]
    masks = [0x7FF, 0x3FF, 0x1FF, 0xFF]
    for k in range(16):
        p.emit(li(T0, k))
        p.branch(lambda off: bne(A0, T0, off), f"case{k + 1}")
        for instr in shapes[k % 4](k):
            p.emit(instr)
        p.emit(opi("andi", A0, T1, masks[k % 4]))
        p.branch(lambda off: j(off), "exit")
        p.label(f"case{k + 1}")
    p.emit(li(A0, 0))
    p.branch(lambda off: j(off), "exit")
    p.label("exit")
    p.emit(ret())
    instrs = p.assemble()
    assert len(instrs) == 120, len(instrs)
    end = p.addr_of("exit")
    rc = RiscvContract(
        name="motor", entry=base, endpoints=frozenset({end}),
        pre=(_eq(RGpr(10), RParam("pre_cmd")),
             _eq(RGpr(11), RParam("pre_arg"))),
        post={end: (RCmp("ule", RGpr(10), RConst(4095)),)},
        params=(Param("pre_cmd"), Param("pre_arg")))
    return asm.listing("motor", base, instrs), print_contract(rc)


def _add32(a, b):
    return RBin("and", RBin("add", a, b), MASK32)


def _line_snd32(a, d, s):
    x = RBin("xor", a, d)
    left = RBin("and", RBin("shl", x, RConst(s)), MASK32)
    right = RBin("lshr", x, RConst(32 - s))
    return RBin("or", left, right)


def build_chacha_qr():
    base = 0x12000
    instrs = []

    def line_fst(dst, src):
        instrs.append(op("addw", dst, dst, src))

    def line_snd(dst, x, s):
        instrs.append(op("xor", T0, x, dst))
        instrs.append(opi("slliw", T1, T0, s))
        instrs.append(opi("srliw", T0, T0, 32 - s))
        instrs.append(op("or", dst, T1, T0))

    line_fst(A0, A1)
    line_snd(A3, A0, 16)
    line_fst(A2, A3)
    line_snd(A1, A2, 12)
    line_fst(A0, A1)
    line_snd(A3, A0, 8)
    line_fst(A2, A3)
    line_snd(A1, A2, 7)
    instrs.append(ret())
    assert len(instrs) == 21
    end = base + 4 * (len(instrs) - 1)

    # the reference transformation over the (masked) parameters
    a = RBin("and", RParam("pre_a"), MASK32)
    b = RBin("and", RParam("pre_b"), MASK32)
    c = RBin("and", RParam("pre_c"), MASK32)
    d = RBin("and", RParam("pre_d"), MASK32)
    a = _add32(a, b)
    d = _line_snd32(a, d, 16)
    c = _add32(c, d)
    b = _line_snd32(c, b, 12)
    a = _add32(a, b)
    d = _line_snd32(a, d, 8)
    c = _add32(c, d)
    b = _line_snd32(c, b, 7)

    pre = tuple(_eq(RGpr(i), RUn("sext32", RParam(nm)))
                for i, nm in ((10, "pre_a"), (11, "pre_b"), (12, "pre_c"), (13, "pre_d")))
    post = (_eq(RGpr(10), RUn("sext32", a)), _eq(RGpr(11), RUn("sext32", b)),
            _eq(RGpr(12), RUn("sext32", c)), _eq(RGpr(13), RUn("sext32", d)))
    rc = RiscvContract(
        name="chacha_qr", entry=base, endpoints=frozenset({end}),
        pre=pre, post={end: post},
        params=tuple(Param(p) for p in ("pre_a", "pre_b", "pre_c", "pre_d")))
    return asm.listing("chacha_qr", base, instrs), print_contract(rc)


def build_trap_entry_mini():
    base = 0x13000
    instrs = [
        csrrw(T6, "mscratch", T6),
        csrrs(T5, "mepc", 0),
        sd(T5, 8, T6),
        sd(RA, 16, T6),
        sd(SP, 24, T6),
        sd(T0, 32, T6),
        sd(T1, 40, T6),
        sd(T2, 48, T6),
        csrrs(T4, "mhartid", 0),
        opi("slli", T4, T4, 10),
        lui(SP, 0x80006),
        addi(SP, SP, 1024),
        op("sub", SP, SP, T4),
        ret(),
    ]
    end = base + 4 * 13
    ms = RParam("pre_mscratch")

    def slot(k):
        return RMemLoad(RBin("add", ms, RConst(8 * k)))

    pre = (_eq(RCsr("mscratch"), ms),
           _eq(RCsr("mepc"), RParam("pre_mepc")),
           _eq(RCsr("mhartid"), RParam("pre_mhartid")),
           _eq(RGpr(1), RParam("pre_x1")),
           _eq(RGpr(2), RParam("pre_x2")),
           _eq(RGpr(5), RParam("pre_x5")),
           _eq(RGpr(6), RParam("pre_x6")),
           _eq(RGpr(7), RParam("pre_x7")),
           _eq(RGpr(31), RParam("pre_x31")))
    post = (_eq(RGpr(2), RBin("sub", RConst(0xFFFFFFFF80006400),
                              RBin("shl", RParam("pre_mhartid"), RConst(10)))),
            _eq(slot(1), RParam("pre_mepc")),
            _eq(slot(2), RParam("pre_x1")),
            _eq(slot(3), RParam("pre_x2")),
            _eq(slot(4), RParam("pre_x5")),
            _eq(slot(5), RParam("pre_x6")),
            _eq(slot(6), RParam("pre_x7")),
            _eq(RCsr("mscratch"), RParam("pre_x31")))
    params = tuple(Param(p) for p in
                   ("pre_mscratch", "pre_mepc", "pre_mhartid", "pre_x1", "pre_x2",
                    "pre_x5", "pre_x6", "pre_x7", "pre_x31"))
    rc = RiscvContract(name="trap_entry_mini", entry=base,
                       endpoints=frozenset({end}), pre=pre, post={end: post},
                       params=params)
    return asm.listing("trap_entry_mini", base, instrs), print_contract(rc)


def build_loopy():
    base = 0x14000
    instrs = [j(0), ret()]
    rc = RiscvContract(name="loopy", entry=base, endpoints=frozenset({base + 4}),
                       pre=(), post={base + 4: ()}, params=())
    return asm.listing("loopy", base, instrs), print_contract(rc)


def build_store_chain(n):
    base = 0x15000
    instrs = []
    for k in range(n):
        instrs.append(op("xor", A0, A0, A2))
        instrs.append(sd(A0, 8 * k, A1))
    instrs.append(ret())
    return asm.listing(f"store_chain_{n}", base, instrs), None


BUILDERS = {
    "incr": build_incr,
    "incr4": build_incr4,
    "mod2": build_mod2,
    "swap": build_swap,
    "isqrt": build_isqrt,
    "motor": build_motor,
    "chacha_qr": build_chacha_qr,
    "trap_entry_mini": build_trap_entry_mini,
    "loopy": build_loopy,
    "store_chain_4": lambda: build_store_chain(4),
    "store_chain_8": lambda: build_store_chain(8),
}


def main(out_dir=None):
    out_dir = out_dir or os.path.join(os.path.dirname(__file__), "data")
    os.makedirs(out_dir, exist_ok=True)
    for name, builder in BUILDERS.items():
        dis, ctr = builder()
        with open(os.path.join(out_dir, f"{name}.dis"), "w") as f:
            f.write(dis)
        if ctr is not None:
            with open(os.path.join(out_dir, f"{name}.ctr"), "w") as f:
                f.write(ctr)
    print(f"wrote fixtures to {out_dir}")


if __name__ == "__main__":
    main()
