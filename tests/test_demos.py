"""The demos that need no dataset run to completion as scripts.

They call the engine directly (`circuits.new_zero_state`, `Steps.sweep`
of a `circuits.Steps` built from a cell's angles, embeddings and
entangler, `observables.pauli_table`, `cell.decoder`, `cell.measure`,
`cell.embed_token`), so running them guards that API outside the tests.
Demo 06 trains on the digits preset, which needs scikit-learn, and is
left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_demo_set_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
