"""Reference oracles that only the tests call: a concrete BIR program
interpreter, the label-discipline and variable-typing checks, abbreviation
expansion, and the objdump mnemonic check.  The pipeline itself never runs
them; the tests hold the engine, the lifter and the corpus against them."""

from __future__ import annotations

import dataclasses

from bircheck import bir
from bircheck.bir import BirError, CJmp, Den, TypeMismatch, exec_block, fold
from bircheck.symexec import SymbolicState


class IndirectTargetUnresolved(BirError):
    def __init__(self, value):
        super().__init__(f"computed jump target 0x{value:x} is not a block or exit label")
        self.value = value


def run_program(program, env, entry, exits=(), fuel=10_000):
    """Concrete interpreter driver: execute from `entry` until a label in
    `exits` or fuel runs out.  Returns (env, stop_label, steps)."""
    exits = set(exits)
    at = entry
    steps = 0
    while True:
        if at in exits:
            return env, at, steps
        blk = program.block(at)
        if blk is None:
            raise IndirectTargetUnresolved(at)
        if steps >= fuel:
            raise BirError(f"fuel exhausted at 0x{at:x} after {steps} blocks")
        env, at = exec_block(blk, env)
        steps += 1


def validate_program(program, exits=()):
    """Check the label discipline: every constant jump target resolves to a
    block label or a declared exit label."""
    ok = set(program.by_label) | set(exits)
    for b in program.blocks:
        e = b.end
        if isinstance(e, CJmp):
            targets = (e.target_true, e.target_false)
        else:
            targets = () if e.computed else (e.target,)
        for t in targets:
            if t not in ok:
                raise BirError(f"block 0x{b.label:x} jumps to undeclared label 0x{t:x}")


def type_of(exp, var_types=None):
    """Type of `exp`; checks Den occurrences against `var_types` (name -> BirType)
    and that each name is used at one type throughout."""
    seen = {} if var_types is None else dict(var_types)

    def rule(e, _):
        if isinstance(e, Den):
            prior = seen.get(e.var.name)
            if prior is not None and prior is not e.var.ty:
                raise TypeMismatch(f"variable {e.var.name} used at {e.var.ty} and {prior}")
            seen[e.var.name] = e.var.ty

    fold(exp, rule)
    return exp.ty


def expand_abbrevs(sbar: SymbolicState) -> SymbolicState:
    """Substitute all abbreviation definitions back into the state."""
    *vals, path = bir.inline_defs([*sbar.env.values(), sbar.path], sbar.abbrevs)
    return dataclasses.replace(sbar, env=dict(zip(sbar.env, vals)), path=path,
                               abbrevs=())


# Pseudo-instruction mnemonics objdump may print for supported encodings.
PSEUDO_FOR = {
    "ret": "jalr", "jr": "jalr", "nop": "addi", "mv": "addi", "li": "addi",
    "j": "jal", "jal": "jal", "beqz": "beq", "bnez": "bne", "bgez": "bge",
    "bltz": "blt", "blez": "bge", "bgtz": "blt", "sext.w": "addiw",
    "seqz": "sltiu", "snez": "sltu", "sltz": "slt", "sgtz": "slt",
    "not": "xori", "neg": "sub", "negw": "subw", "zext.b": "andi",
    "csrw": "csrrw", "csrr": "csrrs", "csrs": "csrrs", "csrc": "csrrc",
}


def mnemonic_matches(printed: str, decoded_kind: str) -> bool:
    """Does an objdump mnemonic (possibly a pseudo-op) agree with decode()?"""
    printed = printed.strip()
    if printed == decoded_kind:
        return True
    return PSEUDO_FOR.get(printed) == decoded_kind
