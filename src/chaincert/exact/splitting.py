"""Split epi/mono decisions with explicit sections and retractions."""

from __future__ import annotations

from ..errors import CertificateError
from .equations import (MapVariable, MatrixRelation, solve_map_relations,
                        well_definedness)
from .matrix import Matrix
from .modules import ModuleMap, PresentedModule, map_equal


def is_split_epi(f: ModuleMap) -> ModuleMap | None:
    """A section s with f o s = id, or None; decided by one linear system."""
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


def is_split_mono(f: ModuleMap) -> ModuleMap | None:
    """A retraction r with r o f = id, or None."""
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
