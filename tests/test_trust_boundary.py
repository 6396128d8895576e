"""The unchecked matrix constructor stays inside the exact kernel.

``exact/matrix.py`` lets its own operations and the rest of ``exact/``
wrap canonical tuples without validation.  Everything else, tests and
the benchmark included, must build matrices through the public
constructor, so this test fails if the private name appears outside
``src/chaincert/exact/``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = ROOT / "src" / "chaincert" / "exact"
PRIVATE = re.compile(r"\b_from_canonical\b")


def test_private_constructor_is_used_only_in_the_kernel():
    assert any(PRIVATE.search(p.read_text())
               for p in KERNEL.glob("*.py")), "the guard lost its target"
    offenders = []
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if KERNEL in path.parents or path == Path(__file__).resolve():
                continue
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if PRIVATE.search(line):
                    offenders.append(f"{path.relative_to(ROOT)}:{n}")
    assert not offenders, offenders
