import random

import pytest

from bircheck import disasm, isa
from bircheck.corpus import fixture, fixture_names

from conftest import render_listing
from oracles import mnemonic_matches

INCR = """\
incr:     file format elf64-littleriscv
Disassembly of section .text:

0000000000010488 <incr>:
   10488:\t00150513          \taddi\ta0,a0,1
   1048c:\t00008067          \tret
"""


def test_parse_incr_listing():
    unit = disasm.parse_objdump(INCR)
    assert unit.symbols == {"incr": 0x10488}
    assert len(unit.sections) == 1
    name, instrs = unit.sections[0]
    assert name == ".text"
    assert [(ri.address, ri.word, ri.mnemonic, ri.operand_text) for ri in instrs] == [
        (0x10488, 0x00150513, "addi", "a0,a0,1"),
        (0x1048C, 0x00008067, "ret", ""),
    ]


def test_parse_header_only():
    unit = disasm.parse_objdump("incr:  file format elf64-littleriscv\n"
                                "Disassembly of section .text:\n")
    assert len(unit.sections) == 1
    assert unit.sections[0][1] == ()


def test_parse_strips_target_annotations():
    text = ("Disassembly of section .text:\n"
            "   10488:\t00150513          \taddi\ta0,a0,1\n"
            "   1048c:\tfe0518e3          \tbnez\ta0,1047c <incr-0xc>\n")
    unit = disasm.parse_objdump(text)
    (_, instrs), = unit.sections
    assert instrs[1].operand_text == "a0,1047c"


def test_malformed_line_reports_number():
    text = "Disassembly of section .text:\n   10488:\tgarbage\n"
    with pytest.raises(disasm.MalformedLine) as e:
        disasm.parse_objdump(text)
    assert e.value.line_no == 2


def test_compressed_word_rejected():
    text = "Disassembly of section .text:\n   10488:\t4501              \tli\ta0,0\n"
    with pytest.raises(disasm.UnsupportedCompressed):
        disasm.parse_objdump(text)


def test_duplicate_address_rejected():
    text = ("Disassembly of section .text:\n"
            "   10488:\t00150513          \taddi\ta0,a0,1\n"
            "Disassembly of section .text2:\n"
            "   10488:\t00150513          \taddi\ta0,a0,1\n")
    with pytest.raises(disasm.DuplicateAddress):
        disasm.parse_objdump(text)


def test_non_consecutive_address_rejected():
    text = ("Disassembly of section .text:\n"
            "   10488:\t00150513          \taddi\ta0,a0,1\n"
            "   10490:\t00150513          \taddi\ta0,a0,1\n")
    with pytest.raises(disasm.MalformedLine):
        disasm.parse_objdump(text)


def test_roundtrip_on_generated_listings():
    # print . parse == identity on instruction lines, modulo whitespace
    rng = random.Random(1234)
    for trial in range(100):
        text, _ = render_listing(rng, n=rng.randrange(1, 24), base=0x10000 + 0x1000 * trial)
        unit = disasm.parse_objdump(text)
        printed = disasm.print_listing(unit)
        assert disasm.instruction_lines(printed) == disasm.instruction_lines(text)
        again = disasm.parse_objdump(printed)
        assert [ri.word for ri in again.all_instrs()] == \
               [ri.word for ri in unit.all_instrs()]


def test_slice_incr_first_instruction():
    unit = disasm.parse_objdump(INCR)
    sl = disasm.make_slice(unit, 0x10488, {0x1048C})
    assert sl.entry == 0x10488
    assert [ri.address for ri in sl.instrs] == [0x10488]
    assert sl.end_addrs == frozenset({0x1048C})


def test_slice_full_range():
    unit = disasm.parse_objdump(INCR)
    sl = disasm.make_slice(unit, 0x10488, {0x10490})
    assert [ri.address for ri in sl.instrs] == [0x10488, 0x1048C]


def test_slice_mid_window():
    rng = random.Random(7)
    text, _ = render_listing(rng, n=10, base=0x20000)
    unit = disasm.parse_objdump(text)
    mid = 0x20000 + 4 * 4
    sl = disasm.make_slice(unit, mid, {mid + 8})
    assert [ri.address for ri in sl.instrs] == [mid, mid + 4]


def test_slice_errors():
    unit = disasm.parse_objdump(INCR)
    with pytest.raises(disasm.EntryNotFound):
        disasm.make_slice(unit, 0x999, {0x99D})
    with pytest.raises(disasm.EndBeforeEntry):
        disasm.make_slice(unit, 0x1048C, {0x10488})
    with pytest.raises(disasm.EndOutsideSlice):
        disasm.make_slice(unit, 0x10488, {0x20000})
    with pytest.raises(disasm.DisasmError):
        disasm.make_slice(unit, 0x10488, set())


def test_slice_empty_when_end_equals_entry():
    unit = disasm.parse_objdump(INCR)
    sl = disasm.make_slice(unit, 0x10488, {0x10488})
    assert sl.instrs == ()


def test_decode_agrees_with_printed_mnemonics_across_corpus():
    # the hex word is the source of truth; the rendered text must agree
    for name in fixture_names():
        dis, _ = fixture(name)
        unit = disasm.parse_objdump(dis)
        for ri in unit.all_instrs():
            kind = isa.decode(ri.word).kind
            assert mnemonic_matches(ri.mnemonic, kind), \
                f"{name} @0x{ri.address:x}: printed {ri.mnemonic!r}, decoded {kind!r}"
