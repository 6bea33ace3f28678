import random

import pytest

from bircheck import disasm, isa
from bircheck.corpus import build, fixture, fixture_names
from bircheck.corpus.chacha import (COLUMNS, DIAGONALS, MASK32, chacha_line_fst,
                                    chacha_line_snd, chacha_quarter_round,
                                    column_round, diagonal_round, double_round)
from bircheck.corpus.fixtures import INSTR_COUNTS, UnknownFixture

from oracles import mnemonic_matches


def rotl32(x, s):
    s %= 32
    return ((x << s) | (x >> (32 - s))) & MASK32 if s else x


def quarter_round_oracle(a, b, c, d):
    # independent rotation-based formulation
    a = (a + b) & MASK32
    d = rotl32(d ^ a, 16)
    c = (c + d) & MASK32
    b = rotl32(b ^ c, 12)
    a = (a + b) & MASK32
    d = rotl32(d ^ a, 8)
    c = (c + d) & MASK32
    b = rotl32(b ^ c, 7)
    return a, b, c, d


def test_line_fst_basic_and_wraparound():
    assert chacha_line_fst(1, 2) == 3
    assert chacha_line_fst(0xFFFFFFFF, 1) == 0
    rng = random.Random(2)
    for _ in range(500):
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        assert chacha_line_fst(a, b) == (a + b) % (1 << 32)


def test_line_snd_equal_inputs_give_zero():
    rng = random.Random(3)
    for _ in range(100):
        a = rng.getrandbits(32)
        s = rng.randrange(1, 32)
        assert chacha_line_snd(a, a, s) == 0


def test_line_snd_is_rotation_for_s16():
    rng = random.Random(4)
    for _ in range(2000):
        a, d = rng.getrandbits(32), rng.getrandbits(32)
        assert chacha_line_snd(a, d, 16) == rotl32(a ^ d, 16)


def test_line_snd_rotation_equivalence_sampled():
    # the exhaustive 2^16-per-shift version runs in the acceptance suite
    rng = random.Random(5)
    for s in range(1, 32):
        for _ in range(200):
            a, d = rng.getrandbits(32), rng.getrandbits(32)
            assert chacha_line_snd(a, d, s) == rotl32(a ^ d, s), s


def test_quarter_round_zero_fixpoint():
    assert chacha_quarter_round(0, 0, 0, 0) == (0, 0, 0, 0)


def test_quarter_round_known_vector():
    # standard ChaCha quarter-round test vector
    got = chacha_quarter_round(0x11111111, 0x01020304, 0x9B8D6F43, 0x01234567)
    assert got == (0xEA2A92F4, 0xCB1CF8CE, 0x4581472E, 0x5881C4BB)


def test_quarter_round_matches_rotation_oracle():
    rng = random.Random(6)
    for _ in range(2000):
        args = tuple(rng.getrandbits(32) for _ in range(4))
        assert chacha_quarter_round(*args) == quarter_round_oracle(*args)


def test_quarter_round_not_idempotent():
    rng = random.Random(7)
    hits = 0
    for _ in range(50):
        args = tuple(rng.getrandbits(32) for _ in range(4))
        once = chacha_quarter_round(*args)
        twice = chacha_quarter_round(*once)
        if once != twice:
            hits += 1
    assert hits == 50


def test_rounds_zero_state():
    zero = (0,) * 16
    assert column_round(zero) == zero
    assert diagonal_round(zero) == zero


def test_double_round_against_independent_oracle():
    def oracle(state):
        out = list(state)
        for quads in (COLUMNS, DIAGONALS):
            for ia, ib, ic, id_ in quads:
                out[ia], out[ib], out[ic], out[id_] = quarter_round_oracle(
                    out[ia], out[ib], out[ic], out[id_])
        return tuple(out)

    rng = random.Random(8)
    for _ in range(300):
        state = tuple(rng.getrandbits(32) for _ in range(16))
        assert double_round(state) == oracle(state)


def test_round_frame_each_quarter_touches_only_its_indices():
    rng = random.Random(9)
    state = tuple(rng.getrandbits(32) for _ in range(16))
    for ia, ib, ic, id_ in COLUMNS:
        probe = list(state)
        probe[ia], probe[ib], probe[ic], probe[id_] = chacha_quarter_round(
            state[ia], state[ib], state[ic], state[id_])
        # recompute via column_round on a state where other quadruples are zero
        # and check untouched indices pass through
        expected_untouched = [k for k in range(16) if k not in (ia, ib, ic, id_)]
        for k in expected_untouched:
            assert probe[k] == state[k]


def test_fixture_known_names_and_unknown_rejected():
    for name in ("incr", "mod2", "swap", "isqrt", "motor", "chacha_qr",
                 "trap_entry_mini"):
        dis, rc = fixture(name)
        assert dis and rc is not None
    with pytest.raises(UnknownFixture):
        fixture("nonesuch")


def test_fixture_incr_is_the_two_line_listing():
    dis, rc = fixture("incr")
    assert "10488:\t00150513          \taddi\ta0,a0,1" in dis
    assert "1048c:\t00008067          \tret" in dis
    assert rc.entry == 0x10488 and rc.endpoints == frozenset({0x1048C})


def test_fixture_trap_entry_shape():
    dis, rc = fixture("trap_entry_mini")
    unit = disasm.parse_objdump(dis)
    kinds = [isa.decode(ri.word).kind for ri in unit.all_instrs()]
    assert kinds[0] == "csrrw"
    assert kinds.count("sd") == 6
    assert "csrrs" in kinds
    # post shape: one stack-pointer arithmetic atom plus saved-register loads
    post = rc.post[max(rc.endpoints)]
    from bircheck.contracts import RGpr, RMemLoad
    assert any(isinstance(c.a, RGpr) and c.a.idx == 2 for c in post)
    assert sum(isinstance(c.a, RMemLoad) for c in post) == 6


def test_fixture_mod2_is_four_instructions_with_and_post():
    dis, rc = fixture("mod2")
    unit = disasm.parse_objdump(dis)
    assert sum(len(i) for _, i in unit.sections) == 4
    (post,) = [c for c in rc.post[max(rc.endpoints)]]
    from bircheck.contracts import RBin
    assert isinstance(post.b, RBin) and post.b.op == "and"


def test_fixture_instruction_counts_match_table():
    for name, want in INSTR_COUNTS.items():
        dis, _ = fixture(name)
        unit = disasm.parse_objdump(dis)
        got = sum(len(instrs) for _, instrs in unit.sections)
        assert got == want, name


def test_fixture_words_redecode_to_printed_mnemonics():
    for name in fixture_names():
        dis, _ = fixture(name)
        unit = disasm.parse_objdump(dis)
        for ri in unit.all_instrs():
            kind = isa.decode(ri.word).kind
            assert mnemonic_matches(ri.mnemonic, kind), (name, disasm.format_instr_line(ri))


def test_checked_in_fixtures_match_builders():
    from importlib import resources
    for name, builder in build.BUILDERS.items():
        dis, ctr = builder()
        root = resources.files("bircheck.corpus")
        assert root.joinpath(f"data/{name}.dis").read_text() == dis, name
        if ctr is not None:
            assert root.joinpath(f"data/{name}.ctr").read_text() == ctr, name
