"""Importing :mod:`repro.serve` loads no numpy.

A serial-only fleet or a ``--stdin`` client never touches the batch
kernels, so the package import must not pay for numpy (about a quarter
of a second and 18 MB): :mod:`repro.serve.batchserve` binds numpy and
the kernels on first use, and ``fleet.numpy_available`` only looks the
module up.  Checked in a fresh interpreter, where nothing else has
imported numpy yet.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
import repro.serve
from repro.serve.fleet import batch_default, numpy_available
numpy_available()
batch_default()
print(sorted(m for m in ("numpy", "repro.targets.batch.core") if m in sys.modules))
"""


def test_import_serve_loads_no_numpy():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"
