"""Access to the checked-in disassembly/contract fixture corpus.

fixture(name) returns the objdump-format listing text and the parsed contract
(None for the synthetic store-chain listings, which exist to measure symbolic
store complexity).  fixture_config(name) gives the engine settings a fixture
needs, e.g. the unroll bound for the isqrt loop.
"""

from __future__ import annotations

from importlib import resources

from ..contracts import parse_contract
from ..symexec import EngineConfig


class UnknownFixture(Exception):
    def __init__(self, name):
        super().__init__(f"unknown fixture {name!r}")
        self.name = name


_NAMES = ("incr", "incr4", "mod2", "swap", "isqrt", "motor", "chacha_qr",
          "trap_entry_mini", "loopy", "store_chain_4", "store_chain_8")

# table-shaped metadata: listing length and the per-fixture engine settings
INSTR_COUNTS = {"incr": 2, "incr4": 4, "mod2": 4, "swap": 8, "isqrt": 15,
                "motor": 120, "chacha_qr": 21, "trap_entry_mini": 14,
                "loopy": 2, "store_chain_4": 9, "store_chain_8": 17}

_CONFIGS = {"isqrt": {"unroll": 5}}


def fixture_names():
    return _NAMES


def _read(name, suffix):
    ref = resources.files(__package__).joinpath(f"data/{name}{suffix}")
    if not ref.is_file():
        return None
    return ref.read_text()


def fixture(name):
    """(disassembly text, RiscvContract or None) for a corpus fixture."""
    if name not in _NAMES:
        raise UnknownFixture(name)
    dis = _read(name, ".dis")
    if dis is None:
        raise UnknownFixture(name)
    ctr_text = _read(name, ".ctr")
    return dis, (parse_contract(ctr_text) if ctr_text is not None else None)


def fixture_config(name) -> EngineConfig:
    return EngineConfig(**_CONFIGS.get(name, {}))
