"""Independent oracles that the tests check the package against.

The package never calls these.  Each decides its question by a route of
its own (determinants, induced maps on homology, kernels of faces, the
Moore projector, whole level matrices, Kronecker products entry by
entry), so that a test comparing it with the package's answer compares
two computations, not one computation with itself.  The last section
holds helpers that only tests read: the hom module, a projectivity test,
the braiding of a tensor product and the document writer.
"""

import itertools

from chaincert.chains.complexes import ChainComplex, ChainMap
from chaincert.chains.homology import homology_data
from chaincert.chains.tensor import TensorLayout
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import (HomSpace, ModuleMap, PresentedModule,
                                     cokernel, direct_sum_module,
                                     factor_through, kernel)
from chaincert.exact.snf import kernel_matrix
from chaincert.exact.splitting import projective_section
from chaincert.io.document import (FORMAT_VERSION, Document, complex_to_json,
                                   components_to_json, simplicial_to_json)
from chaincert.simplicial.levels import TensorLevels
from chaincert.simplicial.surjections import codegeneracy, coface, shuffles


def det(M: Matrix) -> int:
    """Exact determinant (Bareiss on the integer lift, reduced at the end)."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return M.ring.canon(1)
    A = [list(r) for r in M.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return M.ring.canon(sign * A[n - 1][n - 1])


def kernel_hom_presentation(M: PresentedModule, N: PresentedModule
                            ) -> tuple[Matrix, Matrix]:
    """(generators, relations) of Hom(M, N) by two kernels, for any M: the
    vectorized maps phi with phi @ rel_M = rel_N @ Y for some Y, then the
    combinations of them that are zero maps, rel_N @ Z columnwise."""
    ring = M.ring
    gS, gT = M.generators, N.generators
    rS, rT = M.relations.cols, N.relations.cols
    lhs = kron(M.relations.transpose(), Matrix.identity(ring, gT))
    rhs = kron(Matrix.identity(ring, rS), N.relations)
    system = (lhs.hstack(-rhs) if rS
              else Matrix.zero(ring, 0, gT * gS + rS * rT))
    K = kernel_matrix(system)
    gens = _nonzero_columns(K.submatrix(range(gT * gS), range(K.cols)))
    relations = Matrix.zero(ring, gens.cols, 0)
    if gens.cols:
        zero_maps = kron(Matrix.identity(ring, gS), N.relations)
        Krel = kernel_matrix(gens.hstack(-zero_maps))
        relations = _nonzero_columns(
            Krel.submatrix(range(gens.cols), range(Krel.cols)))
    return gens, relations


def _nonzero_columns(M: Matrix) -> Matrix:
    return M.columns([j for j in range(M.cols)
                      if any(M[i, j] for i in range(M.rows))])


def is_invertible(M: Matrix) -> bool:
    return M.rows == M.cols and M.ring.is_unit(det(M))


def pushout_induced_map(P: PresentedModule, u: ModuleMap, v: ModuleMap
                        ) -> ModuleMap:
    """Map out of a pushout presented on the generators of B + C; the
    checked constructor refuses it unless the relations of P go to 0."""
    if u.target != v.target:
        raise ValueError("cone legs must share their target")
    return ModuleMap(P, u.target, u.action.hstack(v.action))


def _is_module_iso(f: ModuleMap) -> bool:
    return kernel(f)[0].is_zero_module() and cokernel(f)[0].is_zero_module()


def _induced_homology_map(f: ChainMap, n: int) -> ModuleMap:
    """H_n(f) on the unminimized homology presentations."""
    hx, hy = homology_data(f.source, n), homology_data(f.target, n)
    z = factor_through(hy.inclusion, f.component(n).compose(hx.inclusion))
    if z is None:
        raise ValueError("chain map does not carry cycles to cycles")
    return ModuleMap(hx.homology, hy.homology, z.action)


def first_homology_by_scan(C: ChainComplex
                           ) -> tuple[int, PresentedModule] | None:
    """The lowest degree with nonzero homology and that homology, found by
    presenting H_n in every degree in turn (the route the exactness sweep
    replaced)."""
    for n in range(C.top + 1):
        H = homology_data(C, n).homology
        if not H.is_zero_module():
            return n, H
    return None


def homology_iso_all_degrees(f: ChainMap) -> bool:
    """Quasi-isomorphism decided by the induced maps on homology."""
    top = max(f.source.top, f.target.top)
    return all(_is_module_iso(_induced_homology_map(f, n))
               for n in range(top + 1))


# -- whole levels: the dense constructions the level classes replaced ------


def surjections(n: int) -> list[tuple[int, ...]]:
    """Every order-preserving surjection out of [n] as a value tuple, in
    the summand order of the levels: by degree k, then by the set of
    positions where the value goes up, lexicographically."""
    out = []
    for k in range(n + 1):
        for jumps in itertools.combinations(range(1, n + 1), k):
            values = [0]
            for x in range(1, n + 1):
                values.append(values[-1] + (x in jumps))
            out.append(tuple(values))
    return out


def compose(eta: tuple[int, ...], alpha: tuple[int, ...]) -> tuple[int, ...]:
    """eta o alpha as value tuples."""
    return tuple(eta[a] for a in alpha)


def epi_mono_factor(tau: tuple[int, ...]
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """tau = iota o eta' with eta' surjective and iota injective.

    Returns (eta' value tuple, image of iota as a sorted tuple).
    """
    image = sorted(set(tau))
    index = {v: i for i, v in enumerate(image)}
    return tuple(index[v] for v in tau), tuple(image)


def summand_image(eta: tuple[int, ...], alpha: tuple[int, ...]
                  ) -> tuple[tuple[int, ...], bool] | None:
    """Where alpha^* sends the summand eta : [n] ->> [k] of Gamma(C), from
    the epi-mono factorization eta o alpha = iota o eta': (eta', False)
    when iota is onto, (eta', True) when iota misses exactly 0 (the
    differential), None otherwise."""
    k = eta[-1]
    eta2, image = epi_mono_factor(compose(eta, alpha))
    if len(image) == k + 1:
        return eta2, False
    if image == tuple(range(1, k + 1)):
        return eta2, True
    return None


def level_module(levels, n: int) -> PresentedModule:
    """Level n as one presented module: the direct sum of C_k over the
    surjections [n] ->> [k], or the tensor of the factors' levels."""
    if isinstance(levels, TensorLevels):
        return kron_tensor_module(level_module(levels.A, n),
                                  level_module(levels.B, n))
    return direct_sum_module(levels.ring, [levels.C.module(eta[-1])
                                           for eta in surjections(n)])


def _summand_offsets(levels, n: int) -> dict[tuple, int]:
    offsets, pos = {}, 0
    for eta in surjections(n):
        offsets[eta] = pos
        pos += levels.C.module(eta[-1]).generators
    return offsets


def structure_matrix(levels, n: int, alpha: tuple[int, ...]) -> Matrix:
    """alpha^* : level n -> level m as a whole matrix.

    On Gamma(C), summand by summand from the epi-mono factorization
    eta o alpha = iota o eta': the identity when iota is onto, d when iota
    misses exactly 0, zero otherwise.  On a tensor, the Kronecker product
    of the factors' matrices.
    """
    if isinstance(levels, TensorLevels):
        return kron(structure_matrix(levels.A, n, alpha),
                    structure_matrix(levels.B, n, alpha))
    C, ring, m = levels.C, levels.ring, len(alpha) - 1
    src, tgt = _summand_offsets(levels, n), _summand_offsets(levels, m)
    rows = [[0] * level_module(levels, n).generators
            for _ in range(level_module(levels, m).generators)]
    for eta in surjections(n):
        k = eta[-1]
        g = C.module(k).generators
        entry = summand_image(eta, alpha)
        if g == 0 or entry is None:
            continue
        eta2, via_d = entry
        block = C.differential(k).action if via_d else \
            Matrix.identity(ring, g)
        r0, c0 = tgt[eta2], src[eta]
        for a, brow in enumerate(block.data):
            rows[r0 + a][c0:c0 + block.cols] = brow
    return Matrix(ring, len(rows), level_module(levels, n).generators, rows)


def face_matrix(levels, n: int, i: int) -> Matrix:
    return structure_matrix(levels, n, coface(n, i))


def degeneracy_matrix(levels, n: int, j: int) -> Matrix:
    return structure_matrix(levels, n, codegeneracy(n, j))


def scanned_nondegenerate(levels, n: int) -> list[int]:
    """The coordinates of level n outside the image of every s_j: their
    rows of the whole degeneracy matrices are zero."""
    images = [degeneracy_matrix(levels, n - 1, j) for j in range(n)]
    return [idx for idx in range(level_module(levels, n).generators)
            if all(not any(S.data[idx]) for S in images)]


def level_matrix(f, n: int) -> Matrix:
    """The level-n matrix of a map between denormalizations: f_k on every
    summand, block diagonal."""
    return Matrix.block_diagonal(f.source.ring, [
        f.normalized_map.component(eta[-1]).action for eta in surjections(n)])


def _moore_differential(levels, n: int) -> Matrix:
    out = face_matrix(levels, n, 0)
    for i in range(1, n + 1):
        term = face_matrix(levels, n, i)
        out = out - term if i % 2 else out + term
    return out


def restricted_relations(levels, n: int, full: list[int]) -> Matrix:
    rel = level_module(levels, n).relations
    restricted = rel.submatrix(full, range(rel.cols))
    keep = [j for j in range(restricted.cols)
            if any(restricted[i, j] != 0 for i in range(restricted.rows))]
    return restricted.columns(keep)


def dense_normalized_quotient(levels, top: int) -> ChainComplex:
    """The quotient by the degenerate coordinates from whole level
    matrices; the checked constructors refuse it unless the Moore
    differential descends."""
    ring = levels.ring
    coords = [scanned_nondegenerate(levels, n) for n in range(top + 1)]
    mods = [PresentedModule(ring, len(full),
                            restricted_relations(levels, n, full))
            for n, full in enumerate(coords)]
    diffs = [ModuleMap(mods[n], mods[n - 1],
                       _moore_differential(levels, n).submatrix(
                           coords[n - 1], coords[n]))
             for n in range(1, top + 1)]
    return ChainComplex(ring, mods, diffs)


def _degeneracy_composite(levels, start: int, indices, cols) -> Matrix:
    """s_{j_r} ... s_{j_1} on the columns ``cols`` of level ``start``,
    j_1 < ... < j_r applied bottom up."""
    M = Matrix.identity(levels.ring, level_module(levels, start).generators
                        ).columns(cols)
    level = start
    for j in sorted(indices):
        M = degeneracy_matrix(levels, level, j) @ M
        level += 1
    return M


def _face_composite(levels, n: int, m: int, index: int, rows) -> Matrix:
    """The rows ``rows`` of d_index^(n-m) (index 0, the back face) or of
    d_{m+1} ... d_n (index None, the front face) : level n -> level m."""
    g = level_module(levels, m).generators
    M = Matrix.identity(levels.ring, g).submatrix(rows, range(g))
    for level in range(m + 1, n + 1):
        M = M @ face_matrix(levels, level, level if index is None else index)
    return M


def dense_ez(A, B, T) -> ChainMap:
    """The shuffle map from whole degeneracy matrices, checked."""
    lay = TensorLayout(A.normalized, B.normalized)
    source, target, ring = lay.complex(), T.normalized, A.ring
    comps = []
    for n in range(max(source.top, target.top) + 1):
        rows = scanned_nondegenerate(T.levels, n)
        blocks = []
        for p, q in lay.pairs(n):
            cols_a = scanned_nondegenerate(A.levels, p)
            cols_b = scanned_nondegenerate(B.levels, q)
            cols = range(len(cols_a) * len(cols_b))
            block = Matrix.zero(ring, len(rows), len(cols))
            for sh in shuffles(p, q):
                left = _degeneracy_composite(A.levels, p, sh.nu, cols_a)
                right = _degeneracy_composite(B.levels, q, sh.mu, cols_b)
                term = kron(left, right).submatrix(rows, cols)
                block = block + term if sh.sign == 1 else block - term
            blocks.append(block)
        action = Matrix.zero(ring, len(rows), 0)
        for block in blocks:
            action = action.hstack(block)
        comps.append(ModuleMap(source.module(n), target.module(n), action))
    return ChainMap(source, target, comps)


def dense_aw(A, B, T) -> ChainMap:
    """The front-back map from whole face matrices, checked."""
    lay = TensorLayout(A.normalized, B.normalized)
    source, target, ring = T.normalized, lay.complex(), A.ring
    comps = []
    for n in range(max(source.top, target.top) + 1):
        cols = scanned_nondegenerate(T.levels, n)
        action = Matrix.zero(ring, 0, len(cols))
        for p, q in lay.pairs(n):
            front = _face_composite(A.levels, n, p, None,
                                    scanned_nondegenerate(A.levels, p))
            back = _face_composite(B.levels, n, q, 0,
                                   scanned_nondegenerate(B.levels, q))
            action = action.vstack(kron(front, back).submatrix(
                range(front.rows * back.rows), cols))
        comps.append(ModuleMap(source.module(n), target.module(n), action))
    return ChainMap(source, target, comps)


def dense_tensor_normalized_map(f, g, srcT, tgtT) -> ChainMap:
    """N(f (x) g) from whole level matrices, checked."""
    comps = []
    for n in range(max(srcT.top, tgtT.top) + 1):
        src_mod = srcT.normalized.module(n)
        tgt_mod = tgtT.normalized.module(n)
        if n <= srcT.top:
            action = kron(level_matrix(f, n), level_matrix(g, n)).submatrix(
                scanned_nondegenerate(tgtT.levels, n),
                scanned_nondegenerate(srcT.levels, n))
        else:
            action = Matrix.zero(srcT.ring, tgt_mod.generators, 0)
        comps.append(ModuleMap(src_mod, tgt_mod, action))
    return ChainMap(srcT.normalized, tgtT.normalized, comps)


def full_injection(levels, n: int) -> Matrix:
    """The inclusion of the non-degenerate coordinates of level n."""
    full = scanned_nondegenerate(levels, n)
    g = level_module(levels, n).generators
    cols = [[0] * len(full) for _ in range(g)]
    for j, idx in enumerate(full):
        cols[idx][j] = 1
    return Matrix(levels.ring, g, len(full), cols)


def normalized_projector(levels, n: int) -> Matrix:
    """P = (1 - s_0 d_1)(1 - s_1 d_2) ... (1 - s_{n-1} d_n) at level n.

    Idempotent onto the normalized part, killing every degeneracy image.
    """
    g = level_module(levels, n).generators
    P = Matrix.identity(levels.ring, g)
    for i in range(n, 0, -1):
        factor = Matrix.identity(levels.ring, g) - (
            degeneracy_matrix(levels, n - 1, i - 1)
            @ face_matrix(levels, n, i))
        P = factor @ P
    return P


def normalized_kernel(levels, top: int
                      ) -> tuple[ChainComplex, list[ModuleMap]]:
    """Normalization as the intersection of kernels of d_1..d_n.

    Returns the complex together with explicit inclusions into the levels;
    the differential is induced by d_0.
    """
    ring = levels.ring
    level = [level_module(levels, n) for n in range(top + 1)]
    mods: list[PresentedModule] = [level[0]]
    inclusions: list[ModuleMap] = [ModuleMap.identity(level[0])]
    for n in range(1, top + 1):
        stacked = face_matrix(levels, n, 1)
        for i in range(2, n + 1):
            stacked = stacked.vstack(face_matrix(levels, n, i))
        total = direct_sum_module(ring, [level[n - 1]] * n)
        ker, incl = kernel(ModuleMap(level[n], total, stacked, check=False))
        mods.append(ker)
        inclusions.append(incl)
    diffs: list[ModuleMap] = []
    for n in range(1, top + 1):
        u = ModuleMap(mods[n], level[n - 1],
                      face_matrix(levels, n, 0) @ inclusions[n].action,
                      check=False)
        w = factor_through(inclusions[n - 1], u)
        if w is None:
            raise ValueError(f"d_0 does not restrict to the normalization "
                             f"at level {n}")
        diffs.append(w)
    return ChainComplex(ring, mods, diffs), inclusions


# -- Kronecker products and the chain tensor ---------------------------


def kron(A: Matrix, B: Matrix) -> Matrix:
    """A (x) B entry by entry: (i * B.rows + k, j * B.cols + l) holds
    A[i, j] * B[k, l]."""
    if A.ring != B.ring:
        raise ValueError("ring mismatch")
    rows, cols = A.rows * B.rows, A.cols * B.cols
    return Matrix(A.ring, rows, cols,
                  [[A[r // B.rows, c // B.cols] * B[r % B.rows, c % B.cols]
                    for c in range(cols)] for r in range(rows)])


def kron_blocks_by_loops(ring, row_sizes, col_sizes, terms) -> Matrix:
    """``Matrix.kron_blocks`` densely: each identity factor built, each
    term's product taken by ``kron`` and added in entry by entry."""
    out = [[0] * sum(col_sizes) for _ in range(sum(row_sizes))]
    for bi, bj, c, A, B in terms:
        A, B = (Matrix.identity(ring, F) if isinstance(F, int) else F
                for F in (A, B))
        K = kron(A, B)
        if (K.rows, K.cols) != (row_sizes[bi], col_sizes[bj]):
            raise ValueError(f"block ({bi},{bj}) has wrong shape")
        r0, c0 = sum(row_sizes[:bi]), sum(col_sizes[:bj])
        for r in range(K.rows):
            for s in range(K.cols):
                out[r0 + r][c0 + s] += c * K[r, s]
    return Matrix(ring, len(out), sum(col_sizes), out)


def _tensor_pairs(X: ChainComplex, Y: ChainComplex, n: int
                  ) -> list[tuple[int, int]]:
    return [(i, n - i) for i in range(max(0, n - Y.top), min(n, X.top) + 1)]


def _pair_sizes(X: ChainComplex, Y: ChainComplex, pairs) -> list[int]:
    return [X.module(i).generators * Y.module(j).generators
            for i, j in pairs]


def kron_tensor_module(M: PresentedModule, N: PresentedModule
                       ) -> PresentedModule:
    """M (x) N with relations [R_M (x) I | I (x) R_N] from identity
    matrices, zero columns dropped."""
    ring = M.ring
    rel = kron(M.relations, Matrix.identity(ring, N.generators)).hstack(
        kron(Matrix.identity(ring, M.generators), N.relations))
    return PresentedModule(ring, M.generators * N.generators,
                           _nonzero_columns(rel))


def kron_layout_module(X: ChainComplex, Y: ChainComplex, n: int
                       ) -> PresentedModule:
    """Degree n of X (x) Y as the direct sum of its summands' tensors."""
    return direct_sum_module(X.ring, [
        kron_tensor_module(X.module(i), Y.module(j))
        for i, j in _tensor_pairs(X, Y, n)])


def kron_layout_differential(X: ChainComplex, Y: ChainComplex, n: int
                             ) -> Matrix:
    """d_n of X (x) Y from d_X (x) I and (-1)^i I (x) d_Y, each built with
    an identity matrix and summed block by block."""
    ring = X.ring
    spairs, tpairs = _tensor_pairs(X, Y, n), _tensor_pairs(X, Y, n - 1)
    blocks: dict[tuple[int, int], Matrix] = {}
    for s, (i, j) in enumerate(spairs):
        gx, gy = X.module(i).generators, Y.module(j).generators
        if (i - 1, j) in tpairs:
            blocks[(tpairs.index((i - 1, j)), s)] = kron(
                X.differential(i).action, Matrix.identity(ring, gy))
        if (i, j - 1) in tpairs:
            t = tpairs.index((i, j - 1))
            blk = kron(Matrix.identity(ring, gx), Y.differential(j).action)
            blk = -blk if i % 2 else blk
            blocks[(t, s)] = blocks[(t, s)] + blk if (t, s) in blocks else blk
    return Matrix.assemble(ring, _pair_sizes(X, Y, tpairs),
                           _pair_sizes(X, Y, spairs), blocks)


def kron_tensor_module_maps(f: ChainMap, g: ChainMap) -> list[Matrix]:
    """The components of f (x) g, block (i, j) the product f_i (x) g_j."""
    X, Y, X2, Y2 = f.source, g.source, f.target, g.target
    out = []
    for n in range(max(X.top + Y.top, X2.top + Y2.top) + 1):
        spairs, tpairs = _tensor_pairs(X, Y, n), _tensor_pairs(X2, Y2, n)
        blocks = {(tpairs.index(p), s): kron(f.component(p[0]).action,
                                             g.component(p[1]).action)
                  for s, p in enumerate(spairs) if p in tpairs}
        out.append(Matrix.assemble(X.ring, _pair_sizes(X2, Y2, tpairs),
                                   _pair_sizes(X, Y, spairs), blocks))
    return out


# -- helpers only tests read ------------------------------------------


def hom_module(M: PresentedModule, N: PresentedModule) -> PresentedModule:
    return HomSpace(M, N).module


def is_projective(M: PresentedModule) -> bool:
    """True iff the canonical surjection R^g -> M splits."""
    return projective_section(M) is not None


def braiding(X: ChainComplex, Y: ChainComplex) -> ChainMap:
    """The symmetry X (x) Y -> Y (x) X with its Koszul sign (-1)^{ij}; the
    ChainMap constructor checks that it commutes with the differentials."""
    src = TensorLayout(X, Y)
    tgt = TensorLayout(Y, X)
    ring = src.ring
    comps = []
    for n in range(src.top + 1):
        total_s = src.module(n).generators
        total_t = tgt.module(n).generators
        rows = [[0] * total_s for _ in range(total_t)]
        for (i, j) in src.pairs(n):
            sign = -1 if (i * j) % 2 else 1
            for a in range(X.module(i).generators):
                for b in range(Y.module(j).generators):
                    rows[tgt.address(n, j, b, a)][src.address(n, i, a, b)] = sign
        comps.append(ModuleMap(src.module(n), tgt.module(n),
                               Matrix(ring, total_t, total_s, rows),
                               check=False))
    return ChainMap(src.complex(), tgt.complex(), comps)


def document_to_json(doc: Document) -> dict:
    objects = {}
    for name, obj in doc.objects.items():
        kind = doc.object_kinds[name]
        if kind == "simplicial_module":
            objects[name] = simplicial_to_json(obj)
        elif kind != "window_complex":
            objects[name] = complex_to_json(
                obj, cochain=kind == "cochain_complex")
    maps = {name: {"source": entry.source_name, "target": entry.target_name,
                   "components": components_to_json(entry.value.parts)}
            for name, entry in doc.maps.items()}
    return {"version": FORMAT_VERSION, "ring": doc.ring.to_json(),
            "objects": objects, "maps": maps}
