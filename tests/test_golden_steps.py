"""Golden steps: each cell's per-step work counts must match ``golden_steps.json``
exactly and its final state to the file's relative tolerance.  A state whose
bits differ from the file's sha256 is reported as a warning, not a failure,
since other BLAS builds may round differently.  ``golden_steps.py`` holds the
cells and regenerates the file."""

import json
import warnings

import numpy as np
import pytest

from golden_steps import CELLS, COUNTS, GOLDEN, STEPS, run_cell, sha256

DATA = json.loads(GOLDEN.read_text())


def test_file_matches_the_cells():
    assert DATA["steps"] == STEPS and DATA["counts"] == list(COUNTS)
    assert list(DATA["cells"]) == list(CELLS)


@pytest.mark.parametrize("name", list(CELLS))
def test_golden_cell(name):
    want = DATA["cells"][name]
    counts, states = run_cell(name)
    assert counts == want["counts"]
    ref = np.array(want["final_state"])
    assert np.linalg.norm(states[-1] - ref) <= DATA["state_rtol"] * np.linalg.norm(ref)
    got = sha256(states)
    if got != want["sha256"]:
        warnings.warn(f"{name}: states within {DATA['state_rtol']:g} but not bit-identical "
                      f"(sha256 {got[:12]}, file {want['sha256'][:12]})")
