"""The shuffle and front-back comparison maps of the tensor normalization.

EZ sends x (x) y in bidegree (p, q) to the signed sum over (p, q)-shuffles
of paired degeneracies; AW sends a level element to the sum of its front
face tensor back face.  Both are chain maps for any simplicial modules
(Eilenberg-Zilber), so they are built unchecked; the ez-aw suite checks
that theorem explicitly on its cases.  AW o EZ is the identity on the
nose, so id - EZ o AW is an idempotent chain map, and EZ o AW is
homotopic to the identity by a contraction of its image, built degree by
degree (`homotopy_from_retraction`); these two facts are verified exactly
on every instance.

That contraction is also the decision that EZ is a homotopy equivalence,
on its target alone: a caller that needs only the answer reads whether
one exists, and `find_ez_aw_homotopy`, whose homotopy the ez-aw command
emits, raises when it does not.
"""

from __future__ import annotations

from ..chains.complexes import ChainHomotopy, ChainMap
from ..chains.homotopy import homotopy_from_retraction
from ..chains.tensor import TensorLayout
from ..errors import CertificateError
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from .module import SimplicialModule
from .surjections import shuffles


def _degeneracy_composite(levels, start: int, indices, cols) -> Matrix:
    """s_{j_r} ... s_{j_1} on the columns ``cols`` of level ``start``, with
    j_1 < ... < j_r, applied bottom up."""
    M = Matrix.identity(levels.ring, levels.rank(start)).columns(cols)
    level = start
    for j in sorted(indices):
        M = levels.degeneracy(level, j) @ M
        level += 1
    return M


def _front_face(levels, n: int, p: int, rows) -> Matrix:
    """The rows ``rows`` of d_{p+1} ... d_n : level n -> level p."""
    M = Matrix.identity(levels.ring, levels.rank(p)).submatrix(
        rows, range(levels.rank(p)))
    for level in range(p + 1, n + 1):
        M = M @ levels.face(level, level)
    return M


def _back_face(levels, n: int, q: int, rows) -> Matrix:
    """The rows ``rows`` of d_0^{n-q} : level n -> level q."""
    M = Matrix.identity(levels.ring, levels.rank(q)).submatrix(
        rows, range(levels.rank(q)))
    for level in range(q + 1, n + 1):
        M = M @ levels.face(level, 0)
    return M


def ez(A: SimplicialModule, B: SimplicialModule,
       T: SimplicialModule) -> ChainMap:
    """The shuffle map N(A) (x) N(B) -> N(A (x) B)."""
    lay = TensorLayout(A.normalized, B.normalized)
    source = lay.complex()
    target = T.normalized
    ring = A.ring
    comps = []
    for n in range(max(source.top, target.top) + 1):
        tgt_gens = target.module(n).generators
        rows = T.levels.nondegenerate_coords(n)
        blocks = []
        for (p, q) in lay.pairs(n):
            cols_a = A.levels.nondegenerate_coords(p)
            cols_b = B.levels.nondegenerate_coords(q)
            cols = range(len(cols_a) * len(cols_b))
            block = Matrix.zero(ring, len(rows), len(cols))
            for sh in shuffles(p, q):
                left = _degeneracy_composite(A.levels, p, sh.nu, cols_a)
                right = _degeneracy_composite(B.levels, q, sh.mu, cols_b)
                term = left.kron_submatrix(right, rows, cols)
                block = block + term if sh.sign == 1 else block - term
            blocks.append(block)
        # no blocks past the tensor's top, where the source is zero
        action = Matrix.hstack_all(ring, tgt_gens, blocks)
        comps.append(ModuleMap(source.module(n), target.module(n), action,
                               check=False))
    return ChainMap(source, target, comps, check=False)


def aw(A: SimplicialModule, B: SimplicialModule,
       T: SimplicialModule) -> ChainMap:
    """The front-back map N(A (x) B) -> N(A) (x) N(B)."""
    lay = TensorLayout(A.normalized, B.normalized)
    source = T.normalized
    target = lay.complex()
    ring = A.ring
    comps = []
    for n in range(max(source.top, target.top) + 1):
        cols = T.levels.nondegenerate_coords(n)
        blocks = []
        for (p, q) in lay.pairs(n):
            front = _front_face(A.levels, n, p,
                                A.levels.nondegenerate_coords(p))
            back = _back_face(B.levels, n, q,
                              B.levels.nondegenerate_coords(q))
            blocks.append(front.kron_submatrix(
                back, range(front.rows * back.rows), cols))
        # no blocks past the tensor's top, where the target is zero
        action = Matrix.vstack_all(ring, source.module(n).generators, blocks)
        comps.append(ModuleMap(source.module(n), target.module(n), action,
                               check=False))
    return ChainMap(source, target, comps, check=False)


def find_ez_aw_homotopy(A: SimplicialModule, B: SimplicialModule,
                        T: SimplicialModule,
                        ez_map: ChainMap | None = None,
                        aw_map: ChainMap | None = None) -> ChainHomotopy:
    """H with d H + H d = id - EZ o AW on N(A (x) B); must always exist.

    `homotopy_from_retraction` checks AW o EZ = id first: it makes
    id - EZ o AW idempotent, so that finding no contraction of its image
    proves there is no H.
    """
    if ez_map is None:
        ez_map = ez(A, B, T)
    if aw_map is None:
        aw_map = aw(A, B, T)
    try:
        h = homotopy_from_retraction(ez_map, aw_map)
    except ValueError as exc:
        raise CertificateError("AW o EZ failed to be the identity") from exc
    if h is None:
        raise CertificateError("EZ o AW is not homotopic to the identity; "
                               "this indicates corrupted level data")
    return h
