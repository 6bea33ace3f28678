import random
import subprocess

import pytest

from bircheck import disasm, lifter
from bircheck.corpus import asm, fixture, fixture_config
from bircheck.smt import SolverConfig


@pytest.fixture(scope="session")
def solver():
    return SolverConfig()


@pytest.fixture
def spawned(monkeypatch):
    """Every process started through `subprocess.Popen` while the test runs."""
    started = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    return started


def random_instrs(rng, n, base):
    """n random supported instructions (branch/jump offsets kept inside the
    listing so operand rendering stays sane)."""
    from bircheck import isa
    out = []
    for k in range(n):
        kind = rng.choice(isa.ALL_KINDS)
        i = lifter.sample_instr(kind, rng)
        out.append(i)
    return out


def render_listing(rng, n=20, base=0x10000, name="synth"):
    instrs = random_instrs(rng, n, base)
    return asm.listing(name, base, instrs, pseudo=rng.random() < 0.5), instrs


CHAIN_BASE = 0x10000


def chain_program(n, second_op):
    """(objdump listing, contract text) for a straight-line chain of `n`
    instructions alternating `xor a0,a0,a1` and `<second_op> a0,a0,a1`, then
    `ret`.  The contract pins gpr[10] = p and gpr[11] = q on entry and asks
    for gpr[10] == p at the `ret`: it holds for an even chain with "xor" and
    fails with "add".  Each instruction feeds the next, so the expressions
    grow one level per instruction."""
    instrs = [asm.op(second_op if k % 2 else "xor", 10, 10, 11) for k in range(n)]
    end = CHAIN_BASE + 4 * n
    listing = asm.listing("chain", CHAIN_BASE, instrs + [asm.ret()])
    contract = (f"program chain_{n}_{second_op}\n"
                f"entry 0x{CHAIN_BASE:x}\n"
                f"endpoints 0x{end:x}\n"
                "params p q\n"
                "pre:\n  gpr[10] == p\n  gpr[11] == q\n"
                f"post 0x{end:x}:\n  gpr[10] == p\n")
    return listing, contract


def load_fixture(name):
    """(slice, program, liftmap, contract) for a corpus fixture; without a
    contract the slice runs from the listing's first to its last
    instruction, as `bircheck bench` takes it."""
    dis, rc = fixture(name)
    unit = disasm.parse_objdump(dis)
    if rc is None:
        instrs = list(unit.all_instrs())
        entry, ends = instrs[0].address, {instrs[-1].address}
    else:
        entry, ends = rc.entry, rc.endpoints
    sl = disasm.make_slice(unit, entry, ends)
    prog, lm = lifter.lift_slice(sl)
    return sl, prog, lm, rc


def seeded(name, salt=0):
    return random.Random(hash((name, salt)) & 0xFFFFFFFF)


def compute_structure(name, solver=None):
    from bircheck import contracts
    sl, prog, lm, rc = load_fixture(name)
    bc = contracts.to_bir(rc, prog)
    structure = contracts.execute(bc, fixture_config(name), solver)
    return sl, prog, lm, rc, bc, structure


def soundness_sample(name, trials, seed, solver=None):
    """Run `trials` random pre-satisfying concrete executions and check each
    final state is matched by at least one leaf under the interpretation built
    from the initial state and parameters."""
    from bircheck import contracts, symexec
    from oracles import run_program
    sl, prog, lm, rc, bc, structure = compute_structure(name, solver)
    exits = set(bc.endpoints) | set(lm.exits)
    rng = random.Random(seed)
    for t in range(trials):
        m, params = contracts.sample_prestate(rc, rng)
        env0 = lifter.machine_to_env(m)
        H = dict(params)
        for var, s in structure.initial.env.items():
            v = env0.get(var)
            if v is None:
                v = {} if var.ty.width is None else 0
            H[s.name] = v
        assert symexec.matches(H, structure.initial, env0, bc.entry), \
            f"{name} trial {t}: initial state not matched"
        envf, stop, _ = run_program(prog, env0, bc.entry, exits=exits,
                                    fuel=100_000)
        hits = [leaf for leaf in structure.leaves
                if symexec.matches(H, leaf, envf, stop)]
        assert hits, f"{name} trial {t}: final state at 0x{stop:x} matched no leaf"
    return len(structure.leaves)
