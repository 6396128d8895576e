"""Split epi/mono decisions with explicit sections and retractions.

Each question is searched once per process, unless the memo has evicted
it since.  `is_split_mono` and `is_split_epi` ask one memo, `_answer`,
keyed by the full content of the question: which search it is, and f's
source, target and action.  `PresentedModule` and `Matrix` hash and
compare by content, and both carry the ring.  The memo stores the action
of the retraction or section found, or None, and holds at most 1024
answers.  It is a module-level `functools.lru_cache`, so a scan for
``cache_clear`` over the package's modules empties it.

On a miss the search runs on the caller's own modules and action, and
checks its answer by multiplication: r o f = id (or f o s = id) modulo
the relations.  A `CertificateError` from that check propagates and is
never stored.  A hit is not checked again: the check depends only on the
key's content, and it held, by multiplication, when the answer was first
found.  A stored None is what a fresh search would give, since the
search is deterministic on that content.  A hit is returned as a map
between the caller's own modules.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from ..errors import CertificateError
from .equations import (MapVariable, MatrixRelation, solve_map_relations,
                        well_definedness)
from .matrix import Matrix
from .modules import ModuleMap, PresentedModule, map_equal


def is_split_epi(f: ModuleMap) -> ModuleMap | None:
    """A section s with f o s = id, or None; decided by one linear system."""
    return _remembered(_search_section, f)


def is_split_mono(f: ModuleMap) -> ModuleMap | None:
    """A retraction r with r o f = id, or None."""
    return _remembered(_search_retraction, f)


def _remembered(search: Callable[[ModuleMap], ModuleMap | None],
                f: ModuleMap) -> ModuleMap | None:
    action = _answer(search, f.source, f.target, f.action)
    # checked by `search` on this content, now or earlier in the process
    return (None if action is None
            else ModuleMap(f.target, f.source, action, check=False))


# far above the distinct questions of one benchmark round (309 retractions
# and 273 sections on the suites workload), so it never evicts there
@lru_cache(maxsize=1024)
def _answer(search: Callable[[ModuleMap], ModuleMap | None],
            source: PresentedModule, target: PresentedModule,
            action: Matrix) -> Matrix | None:
    """The action of ``search``'s answer for the map source -> target with
    this action, or None."""
    found = search(ModuleMap(source, target, action, check=False))
    return None if found is None else found.action


def _search_section(f: ModuleMap) -> ModuleMap | None:
    ring = f.source.ring
    C, B = f.target, f.source
    s = MapVariable("s", C, B)
    main = MatrixRelation(
        terms=[(1, f.action, "s", Matrix.identity(ring, C.generators))],
        rhs=Matrix.identity(ring, C.generators),
        mod=C.relations,
    )
    sol = solve_map_relations(ring, [s], [main, well_definedness(s)])
    if sol is None:
        return None
    section = ModuleMap(C, B, sol["s"])
    if not map_equal(f.compose(section), ModuleMap.identity(C)):
        raise CertificateError("computed section s fails f o s = id")
    return section


def _search_retraction(f: ModuleMap) -> ModuleMap | None:
    ring = f.source.ring
    B, C = f.source, f.target
    r = MapVariable("r", C, B)
    main = MatrixRelation(
        terms=[(1, Matrix.identity(ring, B.generators), "r", f.action)],
        rhs=Matrix.identity(ring, B.generators),
        mod=B.relations,
    )
    sol = solve_map_relations(ring, [r], [main, well_definedness(r)])
    if sol is None:
        return None
    retraction = ModuleMap(C, B, sol["r"])
    if not map_equal(retraction.compose(f), ModuleMap.identity(B)):
        raise CertificateError("computed retraction r fails r o f = id")
    return retraction


def projective_section(M: PresentedModule) -> ModuleMap | None:
    """Section of the canonical surjection R^g -> M when M is projective."""
    projection = ModuleMap(PresentedModule.free(M.ring, M.generators), M,
                           Matrix.identity(M.ring, M.generators), check=False)
    return is_split_epi(projection)
