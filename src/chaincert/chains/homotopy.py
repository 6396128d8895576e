"""Homotopy-theoretic decisions: contractions, homotopies, equivalences.

One entry point per input, each answer a witness that re-verifies
exactly:
  * any map f: f is a homotopy equivalence iff its mapping cone
    contracts.  A contractible complex is exact, so the cone is swept
    for exactness first (`first_inexact_degree`, one Smith form per
    degree) and contracted only when it is exact.
    `is_homotopy_equivalence` decides that;
    `is_chain_homotopy_equivalence` makes the same decision and reads
    the inverse and both homotopies off the contraction
    (`cone_equivalence`), for callers that emit them.
  * a degreewise split map f with checked graded retractions r
    (`Retractions`): `cokernel_contraction(r)` contracts coker f instead,
    which is smaller; when r is a chain map its answer is a homotopy from
    f o r to the identity, which `homotopy_to_identity` checks (the EZ/AW
    comparisons are such maps).
  * two maps f, g: `chain_homotopic` solves d H + H d = g - f in one sweep
    up the degrees (`solve_by_degree`), as the relation of degree n names
    only H_n and H_{n-1}.
Contractions, of a complex (`find_contraction`) or of a cokernel, are
built one degree at a time by `contract_image`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CertificateError
from ..exact.equations import (MapVariable, MatrixRelation, solve_by_degree,
                               solve_map_relations, well_definedness)
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from .complexes import ChainComplex, ChainHomotopy, ChainMap, Retractions
from .cones import mapping_cone
from .homology import first_inexact_degree


def contract_image(p: ChainMap) -> ChainHomotopy | None:
    """s with d s + s d = p, landing in im p, for an idempotent chain map p.

    Needs p o p = p on a complex C; then s is a contraction of im p, and
    it exists iff p is null-homotopic.  Built degree by degree:
    s_n : C_n -> C_{n+1} solves

        d_{n+1} s_n = phi_n := p_n - s_{n-1} d_n   (modulo the relations of C_n)

    together with the well-definedness of s_n: one `solve_map_relations`
    call per degree, in one unknown with identity or source-relation
    right factors, so never the flattened route.  The solution stored is
    p_{n+1} s_n, which solves the same relation and lands in im p.

    The route is complete.  If s_{n-1} = p s_{n-1}, then p phi_n = phi_n,
    and phi_n is a cycle, since d_n phi_n = p d_n - (p - s_{n-2} d_{n-1})
    d_n = 0.  If p = d G + G d for some G, then t = p G contracts im p:
    for a cycle phi in im p, d t phi = p (p - G d) phi = phi.  So t phi_n
    is a well-defined solution whatever s_{n-1} was, and a degree with no
    solution proves that no such G exists.  A solution in every degree
    is a homotopy from zero to p, checked by multiplication
    (CertificateError if the check fails).
    """
    C = p.source
    ring = C.ring
    parts: list[ModuleMap] = []
    for n in range(C.top + 1):
        src, tgt = C.module(n), C.module(n + 1)
        phi = p.component(n).action
        if parts:
            phi = phi - parts[-1].action @ C.differential(n).action
        var = MapVariable("s", src, tgt)
        sol = solve_map_relations(ring, [var], [
            MatrixRelation(terms=[(1, C.differential(n + 1).action, "s",
                                   Matrix.identity(ring, src.generators))],
                           rhs=phi, mod=src.relations),
            well_definedness(var)])
        if sol is None:
            return None
        s_n = p.component(n + 1).action @ sol["s"]
        parts.append(ModuleMap(src, tgt, s_n, check=False))
    h = ChainHomotopy(ChainMap.zero(C, C), p, parts, check=False)
    if not h.validate():
        raise CertificateError("computed contraction s fails d s + s d = p")
    return h


def find_contraction(C: ChainComplex) -> ChainHomotopy | None:
    """s with d s + s d = id, i.e. a contraction of C onto zero.

    `contract_image` of the identity; a degree with no solution proves
    that C is not contractible.
    """
    return contract_image(ChainMap.identity(C))


def chain_homotopic(f: ChainMap, g: ChainMap) -> ChainHomotopy | None:
    """A homotopy from f to g, or None: H with d H + H d = g - f, solved
    one degree at a time, checked by the homotopy's constructor."""
    X, Y = f.source, f.target
    ring = X.ring
    diff = g - f
    steps = []
    for n in range(max(X.top, Y.top) + 1):
        H = MapVariable(f"H{n}", X.module(n), Y.module(n + 1))
        terms = [(1, Y.differential(n + 1).action, H.name,
                  Matrix.identity(ring, X.module(n).generators))]
        if n:
            terms.append((1, Matrix.identity(ring, Y.module(n).generators),
                          f"H{n - 1}", X.differential(n).action))
        steps.append((H, [MatrixRelation(terms, diff.component(n).action,
                                         Y.module(n).relations),
                          well_definedness(H)]))
    parts, _ = solve_by_degree(ring, steps)
    if parts is None:
        return None
    return ChainHomotopy(f, g, [
        ModuleMap(X.module(n), Y.module(n + 1), H, check=False)
        for n, H in enumerate(parts)])


def is_homotopy_equivalence(f: ChainMap) -> bool:
    """Decide whether f is a chain homotopy equivalence, without a witness.

    f is one iff its mapping cone is contractible.  A cone that is not
    exact is not, and needs no contraction solve; an exact one is decided
    by `find_contraction` with a validated contraction.  The inverse and
    the two homotopies that `is_chain_homotopy_equivalence` reads off it
    are not built.
    """
    cone = mapping_cone(f)
    return (first_inexact_degree(cone) is None
            and find_contraction(cone) is not None)


def cokernel_contraction(retractions: Retractions) -> ChainHomotopy | None:
    """T with (e d e) T + T (e d e) = e and T = e T e, where e = id - f r on
    the target B of f = ``retractions.map``; or None, which proves that f
    is no h-equivalence.

    ``retractions`` must hold r_n, checked by its constructor, in every
    degree of f, also past B's top (a KeyError names a degree they miss,
    which would otherwise pass unchecked); the r_n need not commute with d.

    Proof.  e is a graded idempotent with e f = 0, so e d f = e f d = 0
    and (e d e)^2 = e d (id - f r) d e = 0: (B, e d e) is a complex, e an
    idempotent chain map on it, and im e with e d e is coker f, since the
    class of d x in coker f is that of e d x.  `contract_image(e)` finds s
    exactly when coker f is contractible, and T = s e satisfies the same
    identity, as s = e s and e (e d e) = e d e = (e d e) e.  f is
    degreewise split, so cone(f) ~ coker f: f is an h-equivalence iff T
    exists.  T gives the strong deformation retraction r' = r - r d T:
    with id = e + f r, T = e T = T e and e f = 0,

        d T + T d = (e + f r) d e T + T e d (e + f r)
                  = (e d e) T + f r d T + T (e d e) = id - f r',

    r' f = r f - r d T e f = id, and d (id - f r') = (id - f r') d gives
    f (d r' - r' d) = 0, so r' is a chain map.

    When r is a chain map, so is e, so e d e = d e = e d and (B, e d e) is
    (B, d) on im e.  Then r T = r e T = 0, as r e = r - r f r = 0, so
    r d T = d r T = 0 and r' = r: T is a homotopy from f r to id on (B, d)
    itself.
    """
    f = retractions.map
    A, B = f.source, f.target
    r = [retractions.parts[n] for n in range(max(A.top, B.top) + 1)]
    e = [ModuleMap.identity(B.module(n)) - f.component(n).compose(r[n])
         for n in range(B.top + 1)]
    # a complex with an idempotent chain map, by the proof above
    C = ChainComplex(B.ring, B.mods, [e[n - 1].compose(d).compose(e[n])
                                      for n, d in enumerate(B.diffs, 1)],
                     check=False)
    s = contract_image(ChainMap(C, C, e, check=False))
    if s is None:
        return None
    # T = s e, by the proof above
    return ChainHomotopy(s.from_map, s.to_map, [
        part.compose(e[n]) for n, part in enumerate(s.parts)], check=False)


def homotopy_to_identity(f: ChainMap, r: ChainMap,
                         names: tuple[str, str]) -> ChainHomotopy:
    """H with d H + H d = id - f o r, for chain maps f and r with
    r o f = id; ``names`` names f and r in the errors.

    H is `cokernel_contraction` of r as `Retractions` of f, a homotopy on
    f's target itself since r is a chain map.  CertificateError when r o f
    is not the identity, when there is no H, and unless H passes its check.
    """
    f_name, r_name = names
    try:
        retractions = Retractions(f, dict(enumerate(r.parts)))
    except CertificateError as exc:
        raise CertificateError(
            f"{r_name} o {f_name} failed to be the identity") from exc
    found = cokernel_contraction(retractions)
    if found is None:
        raise CertificateError(
            f"{f_name} o {r_name} is not homotopic to the identity")
    h = ChainHomotopy(f.compose(r), ChainMap.identity(f.target), found.parts,
                      check=False)
    if not h.validate():
        raise CertificateError("computed homotopy fails d H + H d = id - "
                               f"{f_name} o {r_name}")
    return h


@dataclass
class HomotopyEquivalence:
    """Inverse g with H : g o f ~ id and K : f o g ~ id, all verified."""

    inverse: ChainMap
    source_homotopy: ChainHomotopy  # from g o f to id_X
    target_homotopy: ChainHomotopy  # from f o g to id_Y


def is_chain_homotopy_equivalence(f: ChainMap
                                  ) -> HomotopyEquivalence | None:
    """The decision of `is_homotopy_equivalence`, with its witness
    (`cone_equivalence`)."""
    cone = mapping_cone(f)
    if first_inexact_degree(cone) is not None:
        return None
    s = find_contraction(cone)
    return None if s is None else cone_equivalence(f, s)


def cone_equivalence(f: ChainMap, s: ChainHomotopy) -> HomotopyEquivalence:
    """The homotopy inverse of f and both homotopies, read off a
    contraction s of ``mapping_cone(f)``.

    With the cone convention d = [[-d_X, 0], [f, d_Y]] a contraction s of
    cone(f) has blocks s = [[A, G], [B, K]] satisfying
        G f - id = d A + A d,   id - f G = d K + K d,
    so g := G is a homotopy inverse.
    """
    X, Y = f.source, f.target
    g_parts, k_parts, a_parts = [], [], []
    top = max(X.top, Y.top)
    for n in range(top + 1):
        # s_n : cone_n -> cone_{n+1}, with the X block first on both sides
        sn, sn1 = s.component(n).action, s.component(n + 1).action
        x_prev, x_n, x_next = (X.module(k).generators
                               for k in (n - 1, n, n + 1))
        g_parts.append(ModuleMap(
            Y.module(n), X.module(n),
            sn.submatrix(range(x_n), range(x_prev, sn.cols)), check=False))
        k_parts.append(ModuleMap(
            Y.module(n), Y.module(n + 1),
            sn.submatrix(range(x_n, sn.rows), range(x_prev, sn.cols)),
            check=False))
        a_parts.append(ModuleMap(
            X.module(n), X.module(n + 1),
            sn1.submatrix(range(x_next), range(x_n)), check=False))
    g = ChainMap(Y, X, g_parts)
    H = ChainHomotopy(g.compose(f), ChainMap.identity(X),
                      [-a for a in a_parts])
    K = ChainHomotopy(f.compose(g), ChainMap.identity(Y), k_parts)
    return HomotopyEquivalence(g, H, K)


def quasi_iso(f: ChainMap) -> bool:
    """True iff the mapping cone is exact, decided by one sweep."""
    return first_inexact_degree(mapping_cone(f)) is None
