"""The library sketch of README.md runs as written."""

import re
from pathlib import Path

from spinline import benchmarks as bm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # the criterion-7 bound on the true-chain discrepancy of p = 0.4
    assert namespace["delta"] <= 10 * bm.WERNER_FULL_DISCREPANCY[0.4]
