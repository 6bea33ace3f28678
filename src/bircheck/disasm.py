"""Parse GNU-objdump-style RV64 disassembly text and select program slices.

Only the 8-hex-digit instruction word drives later analysis; mnemonic and
operand text are kept verbatim for reporting and cross-checks.  Compressed
(4-hex-digit) encodings are rejected.  The symbol table is advisory; slicing
is purely address-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class DisasmError(Exception):
    pass


class MalformedLine(DisasmError):
    def __init__(self, line_no, line, why=""):
        extra = f": {why}" if why else ""
        super().__init__(f"line {line_no}: cannot parse instruction line{extra}: {line.rstrip()!r}")
        self.line_no = line_no
        self.line = line


class UnsupportedCompressed(DisasmError):
    def __init__(self, line_no, line):
        super().__init__(f"line {line_no}: 16-bit (compressed) instruction not supported: {line.rstrip()!r}")
        self.line_no = line_no


class DuplicateAddress(DisasmError):
    def __init__(self, addr):
        super().__init__(f"address 0x{addr:x} appears twice")
        self.addr = addr


class EntryNotFound(DisasmError):
    def __init__(self, addr):
        super().__init__(f"entry address 0x{addr:x} not in disassembly")
        self.addr = addr


class EndBeforeEntry(DisasmError):
    def __init__(self, entry, end):
        super().__init__(f"end address 0x{end:x} precedes entry 0x{entry:x}")


class EndOutsideSlice(DisasmError):
    def __init__(self, end):
        super().__init__(f"end address 0x{end:x} beyond the contiguous run from entry")


@dataclass(frozen=True)
class RawInstr:
    address: int
    word: int
    mnemonic: str
    operand_text: str


@dataclass(frozen=True)
class DisassemblyUnit:
    sections: tuple  # of (name, tuple of RawInstr)
    symbols: dict    # label name -> address

    def all_instrs(self):
        for _, instrs in self.sections:
            yield from instrs


@dataclass(frozen=True)
class ProgramSlice:
    instrs: tuple
    entry: int
    end_addrs: frozenset


_SECTION_RE = re.compile(r"^Disassembly of section (\S+):\s*$")
_SYMBOL_RE = re.compile(r"^([0-9a-fA-F]+)\s+<([^>]+)>:\s*$")
_INSTR_START_RE = re.compile(r"^\s+([0-9a-fA-F]+):")
_INSTR_RE = re.compile(
    r"^\s+([0-9a-fA-F]+):\s+([0-9a-fA-F]+)\s+(\S+)(?:\s+(.*))?$")


def parse_objdump(text: str) -> DisassemblyUnit:
    """Parse `objdump -d` output for a little-endian RV64 ELF."""
    sections = []
    current = None  # (name, list)
    symbols = {}
    seen_addrs = set()

    def open_section(name):
        nonlocal current
        current = (name, [])
        sections.append(current)

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        m = _SECTION_RE.match(line)
        if m:
            open_section(m.group(1))
            continue
        m = _SYMBOL_RE.match(line)
        if m:
            symbols.setdefault(m.group(2), int(m.group(1), 16))
            continue
        if not _INSTR_START_RE.match(line):
            continue  # file-format banner, "...", and other noise
        m = _INSTR_RE.match(line)
        if not m:
            raise MalformedLine(line_no, line)
        addr = int(m.group(1), 16)
        word_text = m.group(2)
        if len(word_text) == 4:
            raise UnsupportedCompressed(line_no, line)
        if len(word_text) != 8:
            raise MalformedLine(line_no, line, f"instruction word has {len(word_text)} hex digits")
        word = int(word_text, 16)
        ops = (m.group(4) or "").strip()
        # drop objdump's symbolic annotations, e.g. "10488 <incr+0x4>" or "# 0x..."
        ops = re.sub(r"\s*(<[^>]*>|#.*)\s*$", "", ops)
        if addr in seen_addrs:
            raise DuplicateAddress(addr)
        seen_addrs.add(addr)
        if current is None:
            open_section("")
        instrs = current[1]
        if instrs and addr != instrs[-1].address + 4:
            raise MalformedLine(line_no, line,
                                f"address not previous+4 (previous 0x{instrs[-1].address:x})")
        instrs.append(RawInstr(addr, word, m.group(3), ops))

    return DisassemblyUnit(tuple((n, tuple(i)) for n, i in sections), symbols)


def make_slice(unit: DisassemblyUnit, entry: int, ends) -> ProgramSlice:
    """Contiguous instruction run from entry up to (excluding) the maximal end
    address; the end set is retained for contract endpoints."""
    ends = frozenset(ends)
    if not ends:
        raise DisasmError("end address set is empty")
    for end in ends:
        if end < entry:
            raise EndBeforeEntry(entry, end)
    run = None
    for _, instrs in unit.sections:
        for k, ri in enumerate(instrs):
            if ri.address == entry:
                run = instrs[k:]
                break
        if run is not None:
            break
    if run is None:
        raise EntryNotFound(entry)
    stop = max(ends)
    picked = tuple(ri for ri in run if ri.address < stop)
    limit = run[-1].address + 4
    if stop > limit:
        raise EndOutsideSlice(stop)
    return ProgramSlice(picked, entry, ends)


def format_instr_line(ri: RawInstr) -> str:
    ops = f"\t{ri.operand_text}" if ri.operand_text else ""
    return f"   {ri.address:x}:\t{ri.word:08x}          \t{ri.mnemonic}{ops}"


def print_listing(unit: DisassemblyUnit) -> str:
    """Render a unit back to objdump-style text.  On instruction lines this is
    the inverse of parse_objdump modulo whitespace."""
    by_addr_syms = {}
    for name, addr in unit.symbols.items():
        by_addr_syms.setdefault(addr, []).append(name)
    out = []
    for name, instrs in unit.sections:
        out.append(f"Disassembly of section {name}:")
        out.append("")
        for ri in instrs:
            for sym_name in by_addr_syms.get(ri.address, ()):
                out.append(f"{ri.address:016x} <{sym_name}>:")
            out.append(format_instr_line(ri))
        out.append("")
    return "\n".join(out)


def instruction_lines(text: str):
    """The whitespace-normalized instruction lines of a listing (for the
    print/parse round-trip check)."""
    result = []
    for line in text.splitlines():
        if _INSTR_START_RE.match(line):
            m = _INSTR_RE.match(line)
            if m:
                addr, word, mnem, ops = m.group(1), m.group(2), m.group(3), (m.group(4) or "")
                result.append(" ".join(filter(None, [addr.lstrip("0") or "0", word,
                                                     mnem, ops.strip()])))
    return result
