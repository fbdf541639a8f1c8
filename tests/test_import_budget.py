"""`zmf eval` runs one point per process, so the import is most of its wall
time.  mpmath (for PSLQ) loads on first use, never with the package, and
scipy.integrate never: the ODE continuation steps with `zmf.ode`.  Each
check runs in a fresh interpreter, since the test process has loaded both
long before."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from zmf import w

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
import zmf, zmf.cli
before = {{m: m in sys.modules for m in ("scipy.integrate", "mpmath")}}
res = zmf.w(4, 2.5, 2.5)
print(json.dumps({{
    "before": before,
    "after": "scipy.integrate" in sys.modules,
    "value": [res.value.real.hex(), res.value.imag.hex()],
}}))
"""


@pytest.fixture(scope="module")
def fresh() -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(src=_SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_loads_neither_scipy_integrate_nor_mpmath(fresh):
    assert fresh["before"] == {"scipy.integrate": False, "mpmath": False}


def test_continuation_loads_no_scipy_integrate_with_the_same_bits(fresh):
    # The r = 4 heavy point reaches the ODE continuation.
    assert fresh["after"] is False
    val = w(4, 2.5, 2.5).value
    assert fresh["value"] == [val.real.hex(), val.imag.hex()]
