"""Homotopy-theoretic decisions: contractions, homotopies, equivalences.

Everything is decided by one flattened linear system over the base ring;
positive answers come with witnesses that re-verify exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exact.equations import (MapVariable, MatrixRelation,
                               solve_map_relations, well_definedness)
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from .complexes import ChainComplex, ChainHomotopy, ChainMap
from .cones import mapping_cone
from .homology import homology_vanishes


def nullhomotopy(f: ChainMap) -> ChainHomotopy | None:
    """H with d H + H d = f, i.e. a homotopy from the zero map to f."""
    X, Y = f.source, f.target
    ring = X.ring
    top = max(X.top, Y.top)
    variables = [MapVariable(f"H{n}", X.module(n), Y.module(n + 1))
                 for n in range(top + 1)]
    relations: list[MatrixRelation] = []
    for n in range(top + 1):
        terms = [(1, Y.differential(n + 1).action, f"H{n}",
                  Matrix.identity(ring, X.module(n).generators))]
        if n >= 1:
            terms.append((1, Matrix.identity(ring, Y.module(n).generators),
                          f"H{n - 1}", X.differential(n).action))
        relations.append(MatrixRelation(terms=terms, rhs=f.component(n).action,
                                        mod=Y.module(n).relations))
    relations += [well_definedness(v) for v in variables]
    sol = solve_map_relations(ring, variables, relations)
    if sol is None:
        return None
    parts = [ModuleMap(X.module(n), Y.module(n + 1), sol[f"H{n}"], check=False)
             for n in range(top + 1)]
    return ChainHomotopy(ChainMap.zero(X, Y), f, parts)


def find_contraction(C: ChainComplex) -> ChainHomotopy | None:
    """s with d s + s d = id, i.e. a contraction of C onto zero.

    Decided in three stages: vanishing homology is necessary, so that is
    checked degree by degree first; then the contraction is built by the
    inductive lift d s_n = id - s_{n-1} d, one small solve per degree,
    which is complete whenever the degrees are projective; if the greedy
    pass gets stuck the full flattened system decides exactly.
    """
    from .homology import homology_data

    for n in range(C.top + 1):
        if not homology_data(C, n).homology.is_zero_module():
            return None
    greedy = _greedy_contraction(C)
    if greedy is not None:
        return greedy
    return nullhomotopy(ChainMap.identity(C))


def _greedy_contraction(C: ChainComplex) -> ChainHomotopy | None:
    from ..exact.snf import solve

    ring = C.ring
    parts: list[ModuleMap] = []
    prev: ModuleMap | None = None
    for n in range(C.top + 1):
        rhs = Matrix.identity(ring, C.module(n).generators)
        if prev is not None:
            rhs = rhs - prev.action @ C.differential(n).action
        src, tgt = C.module(n), C.module(n + 1)
        # d s = rhs mod relations decouples columnwise; well-definedness of
        # the found s is validated, and any failure sends the whole question
        # to the complete flattened solver.
        system = C.differential(n + 1).action.hstack(src.relations)
        sol = solve(system, rhs)
        if sol is None:
            return None
        action = sol.submatrix(range(tgt.generators), range(sol.cols))
        try:
            prev = ModuleMap(src, tgt, action, check=src.relations.cols > 0)
        except ValueError:
            return None
        parts.append(prev)
    return ChainHomotopy(ChainMap.zero(C, C), ChainMap.identity(C), parts)


def chain_homotopic(f: ChainMap, g: ChainMap) -> ChainHomotopy | None:
    """A homotopy from f to g, or None."""
    h = nullhomotopy(g - f)
    if h is None:
        return None
    return ChainHomotopy(f, g, list(h.parts))


@dataclass
class HomotopyEquivalence:
    """Inverse g with H : g o f ~ id and K : f o g ~ id, all verified."""

    inverse: ChainMap
    source_homotopy: ChainHomotopy  # from g o f to id_X
    target_homotopy: ChainHomotopy  # from f o g to id_Y


def is_chain_homotopy_equivalence(f: ChainMap) -> HomotopyEquivalence | None:
    """Decide via contractibility of the mapping cone, extracting witnesses.

    With the cone convention d = [[-d_X, 0], [f, d_Y]] a contraction s of
    cone(f) has blocks s = [[A, G], [B, K]] satisfying
        G f - id = d A + A d,   id - f G = d K + K d,
    so g := G is a homotopy inverse.
    """
    X, Y = f.source, f.target
    cone = mapping_cone(f)
    s = find_contraction(cone.complex)
    if s is None:
        return None
    g_parts, k_parts, a_parts = [], [], []
    top = max(X.top, Y.top)
    for n in range(top + 1):
        sn = s.component(n)  # cone_n -> cone_{n+1}
        gx_src = cone.x_generators(n)      # X_{n-1} columns
        gx_tgt = cone.x_generators(n + 1)  # X_n rows
        g_parts.append(ModuleMap(
            Y.module(n), X.module(n),
            sn.action.submatrix(range(gx_tgt),
                                range(gx_src, sn.action.cols)), check=False))
        k_parts.append(ModuleMap(
            Y.module(n), Y.module(n + 1),
            sn.action.submatrix(range(gx_tgt, sn.action.rows),
                                range(gx_src, sn.action.cols)), check=False))
        sn1 = s.component(n + 1)
        gx_src1 = cone.x_generators(n + 1)
        gx_tgt1 = cone.x_generators(n + 2)
        a_parts.append(ModuleMap(
            X.module(n), X.module(n + 1),
            sn1.action.submatrix(range(gx_tgt1), range(gx_src1)), check=False))
    g = ChainMap(Y, X, g_parts)
    H = ChainHomotopy(g.compose(f), ChainMap.identity(X),
                      [-a for a in a_parts])
    K = ChainHomotopy(f.compose(g), ChainMap.identity(Y), k_parts)
    return HomotopyEquivalence(g, H, K)


def quasi_iso(f: ChainMap) -> bool:
    """True iff the mapping cone has vanishing homology in all degrees."""
    return homology_vanishes(mapping_cone(f).complex)
