import time

import pytest

from helpers import reference_instance
from raccess import run_algorithm1


@pytest.fixture(scope="session")
def reference_run():
    """One converged dual-loop run on the two-loop example, with its wall time."""
    inst = reference_instance()
    t0 = time.perf_counter()
    result = run_algorithm1(inst)
    elapsed = time.perf_counter() - t0
    return {"instance": inst, "result": result, "elapsed": elapsed}
