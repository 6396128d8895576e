"""Presented modules: kernels, cokernels, tensor, hom, splittings."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import (
    HomSpace, ModuleMap, PresentedModule, cokernel, direct_sum, factor_through,
    kernel, map_equal, present_submodule, pushout_modules, tensor_sum_module,
)
from chaincert.exact.rings import ZZ, Zmod
from chaincert.exact import modules
from chaincert.exact.splitting import is_split_epi, is_split_mono

from oracles import (hom_module, is_projective, kernel_hom_presentation,
                     pushout_induced_map)

Z2 = PresentedModule.cyclic(ZZ, 2)
Z3 = PresentedModule.cyclic(ZZ, 3)
Z = PresentedModule.free(ZZ, 1)


def canonical_quotient(d: int) -> ModuleMap:
    return ModuleMap(Z, PresentedModule.cyclic(ZZ, d), Matrix(ZZ, 1, 1, [[1]]))


def test_map_wellformedness_check():
    with pytest.raises(ValueError):
        # Z/2 -> Z sending the generator to 1 is not well defined
        ModuleMap(Z2, Z, Matrix(ZZ, 1, 1, [[1]]))


def test_map_equal_examples():
    f = canonical_quotient(2)
    assert map_equal(f, f)
    g = ModuleMap(Z, Z2, Matrix(ZZ, 1, 1, [[3]]))
    assert map_equal(f, g)  # 3 - 1 = 2 lies in the relation image
    a = ModuleMap(Z, Z, Matrix(ZZ, 1, 1, [[1]]))
    b = ModuleMap(Z, Z, Matrix(ZZ, 1, 1, [[2]]))
    assert not map_equal(a, b)


def test_cokernel_of_doubling_is_Z2():
    two = ModuleMap(Z, Z, Matrix(ZZ, 1, 1, [[2]]))
    coker, proj = cokernel(two)
    assert coker.generators == 1
    assert coker.relations == Matrix(ZZ, 1, 1, [[2]])
    assert map_equal(proj.compose(two), ModuleMap.zero_map(Z, coker))


def test_kernel_of_doubling_is_zero():
    two = ModuleMap(Z, Z, Matrix(ZZ, 1, 1, [[2]]))
    ker, incl = kernel(two)
    assert ker.is_zero_module()
    assert map_equal(two.compose(incl), ModuleMap.zero_map(ker, Z))


def test_cokernel_of_identity_is_zero():
    coker, _ = cokernel(ModuleMap.identity(Z))
    assert coker.is_zero_module()


def test_kernel_universal_property():
    # kernel of Z^2 -> Z, (a, b) -> a + 2b is generated by (2, -1)
    f = ModuleMap(PresentedModule.free(ZZ, 2), Z, Matrix(ZZ, 1, 2, [[1, 2]]))
    ker, incl = kernel(f)
    assert ker.minimal_invariants() == (1, ())
    # any map killed by f factors through the kernel
    u = ModuleMap(Z, PresentedModule.free(ZZ, 2), Matrix(ZZ, 2, 1, [[2], [-1]]))
    w = factor_through(incl, u)
    assert w is not None
    assert map_equal(incl.compose(w), u)


def test_tensor_Z2_Z3_vanishes():
    assert tensor_sum_module(ZZ, [(Z2, Z3)]).is_zero_module()


def test_tensor_unit_law():
    for M in (Z2, PresentedModule.free(ZZ, 2),
              PresentedModule(ZZ, 2, Matrix(ZZ, 2, 1, [[2], [4]]))):
        T = tensor_sum_module(ZZ, [(Z, M)])
        assert T.minimal_invariants() == M.minimal_invariants()


def brute_force_hom_rank(M: PresentedModule, N: PresentedModule, box: int) -> set:
    """All well-defined actions with small entries, up to zero-map identification.

    Independent oracle for hom computations on single-generator modules.
    """
    assert M.generators == 1 and N.generators == 1
    found = set()
    for k in range(-box, box + 1):
        action = Matrix(ZZ, 1, 1, [[k]])
        image = action @ M.relations
        ok = all(
            any((N.relations @ Matrix(ZZ, N.relations.cols, 1, [[c] for c in combo]))
                == image.column_at(j)
                for combo in itertools.product(range(-box, box + 1),
                                               repeat=N.relations.cols))
            for j in range(image.cols)
        )
        if ok:
            found.add(k)
    return found


def test_hom_Z2_to_Z_is_zero():
    assert brute_force_hom_rank(Z2, Z, box=5) == {0}
    assert hom_module(Z2, Z).is_zero_module()


def test_hom_Z2_to_Z2():
    H = hom_module(Z2, Z2)
    assert H.minimal_invariants() == (0, (2,))


def test_hom_unit_law():
    for M in (Z2, PresentedModule.free(ZZ, 2)):
        H = hom_module(Z, M)
        assert H.minimal_invariants() == M.minimal_invariants()


def test_homspace_coords_roundtrip():
    hs = HomSpace(Z2, Z2)
    ident = Matrix.identity(ZZ, 1)
    c = hs.coords(ident)
    elem = hs.element(c)
    # equal up to a zero map
    assert map_equal(ModuleMap(Z2, Z2, elem), ModuleMap(Z2, Z2, ident))


ENCODER_RINGS = [ZZ, Zmod(4), Zmod(6)]


def drawn_module(ring, rng: random.Random) -> PresentedModule:
    gens = rng.randint(0, 3)
    rels = rng.randint(0, 2)
    return PresentedModule(ring, gens, Matrix(ring, gens, rels, [
        [rng.randint(-4, 4) for _ in range(rels)] for _ in range(gens)]))


def drawn_column(ring, size: int, rng: random.Random) -> Matrix:
    return Matrix(ring, size, 1, [[rng.randint(-3, 3)] for _ in range(size)])


def drawn_element(hs: HomSpace, rng: random.Random) -> Matrix:
    """A hom element, shifted by a map that is zero in Hom, so that it is
    not the representative `element` returns."""
    ring = hs.source.ring
    rel = hs.target.relations
    shift = Matrix(ring, rel.cols, hs.source.generators, [
        [rng.randint(-2, 2) for _ in range(hs.source.generators)]
        for _ in range(rel.cols)])
    return (hs.element(drawn_column(ring, hs.module.generators, rng))
            + rel @ shift)


def drawn_map(source, target, rng: random.Random) -> ModuleMap:
    hs = HomSpace(source, target)
    return ModuleMap(source, target, drawn_element(hs, rng))


@pytest.mark.parametrize("ring", ENCODER_RINGS, ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_homspace_coords_encodes_many_as_each(ring, seed):
    """coords(*xs) is the column-by-column coords; coords() has no column."""
    rng = random.Random(seed)
    hs = HomSpace(drawn_module(ring, rng), drawn_module(ring, rng))
    xs = [drawn_element(hs, rng) for _ in range(rng.randint(0, 3))]
    batch = hs.coords(*xs)
    assert (batch.rows, batch.cols) == (hs.module.generators, len(xs))
    for j, x in enumerate(xs):
        assert batch.column_at(j) == hs.coords(x)


@pytest.mark.parametrize("ring", ENCODER_RINGS, ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_induced_hom_maps_compose(ring, seed):
    """precompose(h) sends the element of c to element(c) o h, and
    postcompose(h) to h o element(c), modulo the target relations."""
    rng = random.Random(seed)
    M, N, M2, N2 = (drawn_module(ring, rng) for _ in range(4))
    hs = HomSpace(M, N)
    c = drawn_column(ring, hs.module.generators, rng)
    h = drawn_map(M2, M, rng)
    pre_space = HomSpace(M2, N)
    pre = hs.precompose(h, pre_space)
    assert map_equal(ModuleMap(M2, N, pre_space.element(pre.action @ c)),
                     ModuleMap(M2, N, hs.element(c) @ h.action))
    k = drawn_map(N, N2, rng)
    post_space = HomSpace(M, N2)
    post = hs.postcompose(k, post_space)
    assert map_equal(ModuleMap(M, N2, post_space.element(post.action @ c)),
                     ModuleMap(M, N2, k.action @ hs.element(c)))


def test_homspace_coords_of_nothing_makes_no_solve(monkeypatch):
    hs = HomSpace(Z2, PresentedModule.free(ZZ, 2))

    def refuse(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr(modules, "solve", refuse)
    empty = hs.coords()
    assert (empty.rows, empty.cols) == (hs.module.generators, 0)


@pytest.mark.parametrize("ring", ENCODER_RINGS, ids=str)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_hom_out_of_a_free_module_is_the_kernel_presentation(ring, seed):
    """Hom(R^k, N) in closed form is the presentation of the kernel route,
    generators and relations alike, also when rel_N has a zero column."""
    rng = random.Random(seed)
    M = PresentedModule.free(ring, rng.randint(0, 3))
    N = drawn_module(ring, rng)
    if rng.random() < 0.5:
        N = PresentedModule(ring, N.generators, N.relations.hstack(
            Matrix.zero(ring, N.generators, 1)))
    hs = HomSpace(M, N)
    gens, relations = kernel_hom_presentation(M, N)
    assert hs.module == PresentedModule(ring, gens.cols, relations)
    assert hs.gens == [Matrix.unvec(ring, gens.column_at(j), N.generators,
                                    M.generators) for j in range(gens.cols)]


def test_hom_out_of_a_free_module_takes_no_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel_matrix called")

    monkeypatch.setattr(modules, "kernel_matrix", refuse)
    hs = HomSpace(PresentedModule.free(ZZ, 2), Z2)
    assert hs.module == PresentedModule(ZZ, 2, Matrix(ZZ, 2, 2,
                                                      [[2, 0], [0, 2]]))
    with pytest.raises(AssertionError, match="kernel_matrix called"):
        HomSpace(Z2, Z2)


def test_split_epi_projection():
    f = ModuleMap(PresentedModule.free(ZZ, 2), Z, Matrix(ZZ, 1, 2, [[1, 0]]))
    s = is_split_epi(f)
    assert s is not None
    assert map_equal(f.compose(s), ModuleMap.identity(Z))


def test_split_epi_Z_to_Z2_fails():
    # brute force over the two candidate actions Z/2 -> Z
    candidates = []
    for k in (0, 1):
        if (2 * k) % 2 == 0 and 2 * k == 0:  # well defined over Z
            candidates.append(k)
    assert all((1 * k) % 2 != 1 for k in candidates)
    assert is_split_epi(canonical_quotient(2)) is None


def test_split_epi_Z6_to_Z2_section():
    ring = Zmod(6)
    Z6 = PresentedModule.free(ring, 1)
    Z2m = PresentedModule(ring, 1, Matrix(ring, 1, 1, [[2]]))
    f = ModuleMap(Z6, Z2m, Matrix(ring, 1, 1, [[1]]))
    # brute force over the 6 candidate actions
    good = [k for k in range(6) if (2 * k) % 6 == 0 and k % 2 == 1]
    assert good == [3]
    s = is_split_epi(f)
    assert s is not None
    assert s.action[0, 0] == 3


def test_split_mono_examples():
    inj = ModuleMap(Z, PresentedModule.free(ZZ, 2), Matrix(ZZ, 2, 1, [[1], [0]]))
    r = is_split_mono(inj)
    assert r is not None
    two = ModuleMap(Z, Z, Matrix(ZZ, 1, 1, [[2]]))
    assert is_split_mono(two) is None


def test_projectivity_examples():
    assert not is_projective(Z2)
    assert is_projective(PresentedModule.free(ZZ, 2))
    ring = Zmod(6)
    Z2_over_Z6 = PresentedModule(ring, 1, Matrix(ring, 1, 1, [[2]]))
    assert is_projective(Z2_over_Z6)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5),
       st.data())
def test_split_epi_matches_enumeration_mod4(a, b, data):
    """On Z/4 cyclic modules the solver agrees with exhaustive search."""
    ring = Zmod(4)
    M = PresentedModule(ring, 1, Matrix(ring, 1, 1, [[a]]))
    N = PresentedModule(ring, 1, Matrix(ring, 1, 1, [[b]]))
    act = data.draw(st.integers(min_value=0, max_value=3))
    # the map M -> N must be well defined; skip candidates that are not
    if (act * a) % 4 not in {(b * t) % 4 for t in range(4)}:
        return
    f = ModuleMap(M, N, Matrix(ring, 1, 1, [[act]]))
    found = None
    for s in range(4):
        s_ok = (s * b) % 4 in {(a * t) % 4 for t in range(4)}
        if s_ok and any((act * s - 1 - b * t) % 4 == 0 for t in range(4)):
            found = s
            break
    assert (is_split_epi(f) is not None) == (found is not None)


def test_pushout_of_span_from_zero_is_sum():
    zero = PresentedModule.zero(ZZ)
    f = ModuleMap.zero_map(zero, Z)
    g = ModuleMap.zero_map(zero, Z2)
    P, injB, injC = pushout_modules(f, g)
    assert P.minimal_invariants() == (1, (2,))
    assert map_equal(injB.compose(f), injC.compose(g))


def test_pushout_induced_map():
    f = ModuleMap(Z, Z, Matrix(ZZ, 1, 1, [[2]]))
    g = ModuleMap.identity(Z)
    P, injB, injC = pushout_modules(f, g)
    # cokernel-style cone: u on B, v on C into Z/2
    u = canonical_quotient(2)
    v = ModuleMap.zero_map(Z, u.target)
    # u o f = 2 = 0 mod 2 = v o g, so the cone commutes
    assert map_equal(u.compose(f), v.compose(g))
    h = pushout_induced_map(P, u, v)
    assert map_equal(h.compose(injB), u)
    assert map_equal(h.compose(injC), v)


def test_present_submodule():
    # submodule of Z/4 generated by 2: isomorphic to Z/2
    ring = Zmod(4)
    Z4 = PresentedModule.free(ring, 1)
    sub, incl = present_submodule(Z4, Matrix(ring, 1, 1, [[2]]))
    assert sub.minimal_invariants() == (0, (2,))
    assert incl.action == Matrix(ring, 1, 1, [[2]])


def test_direct_sum_injections_projections():
    S, injs, projs = direct_sum([Z2, Z])
    assert S.generators == 2
    for inj, proj, M in zip(injs, projs, [Z2, Z]):
        assert map_equal(proj.compose(inj), ModuleMap.identity(M))
