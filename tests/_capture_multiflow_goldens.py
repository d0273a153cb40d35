"""One-off golden capture for the multi-flow emulator (not a test).

Run against a known-good :class:`repro.cc.multiflow.MultiFlowEmulator`
to print the digests pinned in ``tests/test_multiflow_goldens.py``:

    PYTHONPATH=src python tests/_capture_multiflow_goldens.py

The scenario digests in the repo were captured from the pre-fast-path
implementation immediately before the fast-path rewrite; the rewrite
reproduces them bit for bit.  The Table-1 mix digests were captured at
e9af27e, where a frozen copy of the pre-fast-path stack gave the same.
"""

import sys

sys.path.insert(0, "tests")

from test_multiflow_goldens import (  # noqa: E402
    SCENARIOS,
    TABLE1_MIXES,
    run_scenario,
    run_table1_mix,
)


def main() -> None:
    print("GOLDEN_DIGESTS = {")
    for name in SCENARIOS:
        print(f'    "{name}": "{run_scenario(name)}",')
    print("}")
    print("TABLE1_DIGESTS = {")
    for name in TABLE1_MIXES:
        print(f'    "{name}": "{run_table1_mix(name)}",')
    print("}")


if __name__ == "__main__":
    main()
