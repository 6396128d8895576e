"""Independent oracles that the tests check the package against.

The package never calls these.  Each decides its question by a route of
its own (determinants, induced maps on homology, kernels of faces, the
Moore projector), so that a test comparing it with the package's answer
compares two computations, not one computation with itself.
"""

from chaincert.chains.complexes import ChainComplex, ChainMap
from chaincert.chains.homology import homology_data
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import (ModuleMap, PresentedModule, cokernel,
                                     direct_sum_module, factor_through,
                                     kernel)


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


def homology_iso_all_degrees(f: ChainMap) -> bool:
    """Quasi-isomorphism decided by the induced maps on homology."""
    top = max(f.source.top, f.target.top)
    return all(_is_module_iso(_induced_homology_map(f, n))
               for n in range(top + 1))


def full_injection(levels, n: int) -> Matrix:
    """The inclusion of the non-degenerate coordinates of level n."""
    full = levels.nondegenerate_coords(n)
    g = levels.rank(n)
    cols = [[0] * len(full) for _ in range(g)]
    for j, idx in enumerate(full):
        cols[idx][j] = 1
    return Matrix(levels.ring, g, len(full), cols)


def normalized_projector(levels, n: int) -> Matrix:
    """P = (1 - s_0 d_1)(1 - s_1 d_2) ... (1 - s_{n-1} d_n) at level n.

    Idempotent onto the normalized part, killing every degeneracy image.
    """
    g = levels.module(n).generators
    P = Matrix.identity(levels.ring, g)
    for i in range(n, 0, -1):
        factor = Matrix.identity(levels.ring, g) - (
            levels.degeneracy(n - 1, i - 1) @ levels.face(n, i))
        P = factor @ P
    return P


def normalized_kernel(levels, top: int
                      ) -> tuple[ChainComplex, list[ModuleMap]]:
    """Normalization as the intersection of kernels of d_1..d_n.

    Returns the complex together with explicit inclusions into the levels;
    the differential is induced by d_0.
    """
    ring = levels.ring
    mods: list[PresentedModule] = [levels.module(0)]
    inclusions: list[ModuleMap] = [ModuleMap.identity(levels.module(0))]
    for n in range(1, top + 1):
        stacked = levels.face(n, 1)
        for i in range(2, n + 1):
            stacked = stacked.vstack(levels.face(n, i))
        total = direct_sum_module(ring, [levels.module(n - 1)] * n)
        ker, incl = kernel(ModuleMap(levels.module(n), total, stacked,
                                     check=False))
        mods.append(ker)
        inclusions.append(incl)
    diffs: list[ModuleMap] = []
    for n in range(1, top + 1):
        u = ModuleMap(mods[n], levels.module(n - 1),
                      levels.face(n, 0) @ inclusions[n].action, check=False)
        w = factor_through(inclusions[n - 1], u)
        if w is None:
            raise ValueError(f"d_0 does not restrict to the normalization "
                             f"at level {n}")
        diffs.append(w)
    return ChainComplex(ring, mods, diffs), inclusions

