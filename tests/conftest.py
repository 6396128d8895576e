"""Every test starts with the package's process-wide caches empty.

The memo of split answers (`exact/splitting.py`) and the plan caches of
`simplicial/` live for the whole process, so without this a test's call
counts would depend on which tests ran before it.  The scan is the one
the benchmark runs before every round: each ``cache_clear`` among the
globals of a loaded chaincert module.
"""

import sys

import pytest


@pytest.fixture(autouse=True)
def cold_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("chaincert") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
