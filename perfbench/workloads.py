"""Seeded inputs for the three benchmark workloads.

Every input is a pair of texts, an objdump-style listing and a contract, plus
the answer the verifier must give and the unroll bound it needs.  The answer
never comes from the verifier:

- ``corpus``: the shipped fixtures, each ``verified`` (the test suite's
  acceptance criteria pin these answers);
- ``refute``: one mutant per corpus contract with one postcondition atom
  perturbed, kept only when a concrete ``isa.run`` from a seeded
  ``sample_prestate`` ends at the endpoint with the mutated postcondition
  false, so ``refuted`` is witnessed by the reference interpreter;
- ``store-scale``: straight-line programs built here whose contracts hold
  by construction, spot-checked with ``isa.run`` before they are used.

The same seed gives byte-identical texts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from bircheck import contracts, disasm, isa
from bircheck.contracts import (Param, RBin, RCmp, RConst, RGpr, RMemLoad,
                                RParam, RiscvContract)
from bircheck.corpus import asm, fixture, fixture_config

WORKLOADS = ("corpus", "refute", "store-scale")

# loopy is left out: its answer is `unknown` by design
CORPUS = ("incr", "incr4", "mod2", "swap", "isqrt", "motor", "chacha_qr",
          "trap_entry_mini")

STORE_SCALE_PROGRAMS = 8
STORE_SCALE_MIN_N = 16
STORE_SCALE_MAX_N = 256
SPOT_CHECKS = 3


class GenerationError(Exception):
    pass


@dataclass(frozen=True)
class Input:
    name: str
    dis: str          # objdump listing text
    ctr: str          # contract text
    expected: str     # "verified" | "refuted"
    unroll: int = 0


def build(workload: str, seed: int) -> list:
    if workload == "corpus":
        return corpus_inputs()
    if workload == "refute":
        return refute_inputs(seed)
    if workload == "store-scale":
        return store_scale_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _ctr_text(name):
    from importlib import resources
    return resources.files("bircheck.corpus").joinpath(f"data/{name}.ctr").read_text()


def corpus_inputs() -> list:
    out = []
    for name in CORPUS:
        dis, _ = fixture(name)
        out.append(Input(name, dis, _ctr_text(name), "verified",
                         fixture_config(name).unroll))
    return out


# ---------------------------------------------------------------------------
# refute: postcondition mutants witnessed by the ISA interpreter

def _candidates(atom: RCmp, rng: random.Random):
    """Perturbations of one comparison, in a seeded order."""
    k = rng.randrange(1, 1 << 16)
    bit = rng.randrange(64)
    out = [RCmp(atom.op, atom.a, RBin("add", atom.b, RConst(k))),
           RCmp(atom.op, atom.a, RBin("xor", atom.b, RConst(1 << bit)))]
    if atom.op != "eq":
        out.append(RCmp(atom.op, atom.b, atom.a))
        out.append(RCmp(atom.op, atom.a, RBin("lshr", atom.b, RConst(4))))
    rng.shuffle(out)
    return out


def _violated(rc: RiscvContract, sl, rng: random.Random, tries=8) -> bool:
    """True when some seeded prestate runs to an endpoint whose
    postcondition is false."""
    for _ in range(tries):
        m, params = contracts.sample_prestate(rc, rng)
        try:
            final, _ = isa.run(m, sl, 100_000)
        except isa.IsaError:
            continue
        post = rc.post.get(final.pc)
        if post is not None and not contracts.eval_pred(post, final, params):
            return True
    return False


def mutate(rc: RiscvContract, sl, rng: random.Random) -> RiscvContract:
    """A copy of rc with one postcondition atom perturbed so that the
    reference interpreter finds a violation."""
    sites = [(ep, i) for ep in sorted(rc.post) for i in range(len(rc.post[ep]))]
    rng.shuffle(sites)
    for ep, i in sites:
        for cand in _candidates(rc.post[ep][i], rng):
            post = dict(rc.post)
            atoms = list(post[ep])
            atoms[i] = cand
            post[ep] = tuple(atoms)
            mutant = RiscvContract(name=rc.name, entry=rc.entry,
                                   endpoints=rc.endpoints, pre=rc.pre, post=post,
                                   params=rc.params, forbidden=rc.forbidden)
            if _violated(mutant, sl, rng):
                return mutant
    raise GenerationError(f"no concretely violated mutant of {rc.name}")


def refute_inputs(seed: int) -> list:
    out = []
    for inp in corpus_inputs():
        rng = random.Random(f"refute:{seed}:{inp.name}")
        rc = contracts.parse_contract(inp.ctr)
        sl = disasm.make_slice(disasm.parse_objdump(inp.dis), rc.entry, rc.endpoints)
        mutant = mutate(rc, sl, rng)
        out.append(Input(f"{inp.name}~m{seed}", inp.dis,
                         contracts.print_contract(mutant), "refuted", inp.unroll))
    return out


# ---------------------------------------------------------------------------
# store-scale: N stores to one base, then N loads of shuffled slots

BASE_REG = 11                     # a1
TEMP_REG = 5                      # t0
VALUE_REGS = (12, 13, 14, 15, 16, 17, 6, 7)   # a2..a7, t1, t2
SLOT_BIAS = -2048                 # slot i lives at a1 - 2048 + 8*i (12-bit imm)


def _slot_off(i):
    return SLOT_BIAS + 8 * i


def _slot_addr(i):
    off = _slot_off(i)
    base = RGpr(BASE_REG)
    if off < 0:
        return RBin("sub", base, RConst(-off))
    return RBin("add", base, RConst(off)) if off else base


def store_program(n: int, rng: random.Random, index: int = 0):
    """(listing, contract) for: slots 0..n-1 <- value registers; then for
    each j, t0 <- slot perm[j]; slot n+j <- t0.  Every access uses base a1
    with a constant offset, so load-over-store resolves without the solver."""
    if not 1 <= n <= 256:
        raise ValueError("n must be in 1..256 (two slot runs fit a 12-bit offset)")
    src = [rng.choice(VALUE_REGS) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    instrs = [asm.sd(src[i], _slot_off(i), BASE_REG) for i in range(n)]
    for j in range(n):
        instrs.append(asm.ld(TEMP_REG, _slot_off(perm[j]), BASE_REG))
        instrs.append(asm.sd(TEMP_REG, _slot_off(n + j), BASE_REG))
    instrs.append(asm.ret())
    name = f"store_scale_{index}_n{n}"
    base = 0x20000
    end = base + 4 * (len(instrs) - 1)

    def param(r):
        return RParam(f"pre_x{r}")

    pre = (RCmp("eq", RGpr(BASE_REG), RParam("pre_base")),) + tuple(
        RCmp("eq", RGpr(r), param(r)) for r in VALUE_REGS)
    post = tuple(RCmp("eq", RMemLoad(_slot_addr(n + j)), param(src[perm[j]]))
                 for j in range(n)) + (RCmp("eq", RGpr(BASE_REG), RParam("pre_base")),)
    rc = RiscvContract(
        name=name, entry=base, endpoints=frozenset({end}), pre=pre,
        post={end: post},
        params=(Param("pre_base"),) + tuple(Param(f"pre_x{r}") for r in VALUE_REGS))
    return asm.listing(name, base, instrs), contracts.print_contract(rc)


def store_sizes(seed: int) -> list:
    """Sizes spread log-uniformly over [16, 256]: the ends are fixed and
    each interior size is drawn within a quarter of a grid step of its grid
    point, so every seed covers the whole range with about the same work."""
    rng = random.Random(f"store-scale-sizes:{seed}")
    k = STORE_SCALE_PROGRAMS
    lo, hi = math.log(STORE_SCALE_MIN_N), math.log(STORE_SCALE_MAX_N)
    step = (hi - lo) / (k - 1)
    mid = [round(math.exp(lo + (i + rng.uniform(-0.25, 0.25)) * step))
           for i in range(1, k - 1)]
    return [STORE_SCALE_MIN_N] + mid + [STORE_SCALE_MAX_N]


def store_scale_inputs(seed: int) -> list:
    out = []
    for k, n in enumerate(store_sizes(seed)):
        rng = random.Random(f"store-scale:{seed}:{k}")
        dis, ctr = store_program(n, rng, k)
        out.append(Input(f"store_scale_{k}_n{n}", dis, ctr, "verified"))
    return out


def spot_check(inp: Input, seed: int, trials: int = SPOT_CHECKS) -> str:
    """Run a `verified` input's program concretely from sampled prestates;
    returns "" when the postcondition held every time, else why not."""
    rc = contracts.parse_contract(inp.ctr)
    sl = disasm.make_slice(disasm.parse_objdump(inp.dis), rc.entry, rc.endpoints)
    rng = random.Random(f"spot:{seed}:{inp.name}")
    for t in range(trials):
        try:
            m, params = contracts.sample_prestate(rc, rng)
            final, _ = isa.run(m, sl, 100_000)
        except (contracts.ContractError, isa.IsaError) as e:
            return f"trial {t}: {type(e).__name__}: {e}"
        post = rc.post.get(final.pc)
        if post is None:
            return f"trial {t} stopped at 0x{final.pc:x}, not an endpoint"
        if not contracts.eval_pred(post, final, params):
            return f"trial {t} violates the postcondition at 0x{final.pc:x}"
    return ""
