import csv
import io
import os
from pathlib import Path

import numpy as np
import pytest

import spinline as sl
from spinline import benchmarks as bm


@pytest.fixture(scope="session")
def tuned20():
    """Spectral data of the tuned 20-node chain."""
    ref = bm.TUNED_CHAINS[20]
    spec = sl.ChainSpec(n_nodes=20, delta1=ref["delta1"], delta2=ref["delta2"])
    return sl.diagonalize(spec)


@pytest.fixture(scope="session")
def tuned20_params(tuned20):
    return sl.line_params_at(tuned20, bm.TUNED_CHAINS[20]["t0"])


@pytest.fixture(scope="session")
def tuned60_params():
    ref = bm.TUNED_CHAINS[60]
    spec = sl.ChainSpec(n_nodes=60, delta1=ref["delta1"], delta2=ref["delta2"])
    return sl.line_params_at(sl.diagonalize(spec), ref["t0"])


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def child_env():
    """``os.environ`` with the directory holding the imported spinline first on
    PYTHONPATH, so child interpreters import the same package."""
    src = str(Path(sl.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, path] if path else [src])}


@pytest.fixture(scope="session")
def csv_oracle():
    """The bytes of a CSV artifact by the stdlib recipe: ``# `` comment lines,
    then :func:`csv.writer` rows with every float cell written as ``.12e``."""
    def table_bytes(comments, header, rows):
        buf = io.StringIO(newline="")
        buf.writelines(f"# {line}\n" for line in comments)
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows([f"{v:.12e}" if isinstance(v, float) else v for v in row]
                         for row in rows)
        return buf.getvalue().encode()
    return table_bytes
