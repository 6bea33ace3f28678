"""Set-up work of one benchmark run, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py INPUT_DIR

Imports bircheck, then parses, slices, lifts and translates every
NAME.dis / NAME.ctr pair in INPUT_DIR, and prints how many it prepared.
run.py times this whole process from start to exit for `setup_s`.
"""

import os
import sys


def main(argv):
    in_dir = argv[1]
    from bircheck import contracts, disasm, lifter
    names = sorted(n[:-4] for n in os.listdir(in_dir) if n.endswith(".ctr"))
    for name in names:
        with open(os.path.join(in_dir, name + ".ctr")) as f:
            rc = contracts.parse_contract(f.read())
        with open(os.path.join(in_dir, name + ".dis")) as f:
            unit = disasm.parse_objdump(f.read())
        prog, _ = lifter.lift_slice(disasm.make_slice(unit, rc.entry, rc.endpoints))
        contracts.to_bir(rc, prog)
    print(len(names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
