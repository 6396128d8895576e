"""Transferred classifiers and lifting solvers for simplicial modules.

Everything is decided on normalized complexes: a simplicial map is a
fibration / cofibration / weak equivalence exactly when its normalization
is one in the Hurewicz structure.  The homotopy lifting and extension
solvers follow the proof pipeline literally: normalize, lift against the
shuffle comparison (or its dual), and denormalize.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chains.build import interval
from ..chains.complexes import (ChainHomotopy, ChainMap, LiftingProblem,
                                chain_map_equal)
from ..chains.cones import pushout_complexes, pushout_induced_chain_map
from ..chains.homotopy import chain_homotopic
from ..chains.tensor import cylinder_map, interval_cylinder
from ..errors import CertificateError
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from ..models.classify import classify, h_cofibration_bit, h_fibration_bit
from ..models.lifting import find_lift
from ..models.pushout import Legs, PushoutProduct, decide_pushout_product
from ..models.verdict import ClassBit, Verdict
from .cotensor import CotensorData, cotensor, ez_aw_dual_ops
from .ez_aw import aw, ez
from .levels import GammaLevels
from .module import (SimplicialMap, SimplicialModule, constant_module,
                     degreewise_tensor, end_inclusion, gamma_map,
                     interval_object, tensor_normalized_map,
                     tensor_normalized_parts)


def _require(holds: bool, failure: str) -> None:
    """Raise CertificateError unless a re-check of a computed map holds."""
    if not holds:
        raise CertificateError(failure)


def simplicial_classify(f: SimplicialMap) -> Verdict:
    """Classify through the normalization, Hurewicz flavor."""
    return classify(f.normalized_map, "h")


def simplicial_homotopic(f: SimplicialMap, g: SimplicialMap
                         ) -> tuple[ChainHomotopy, SimplicialMap] | None:
    """Decide on normalizations; transport to a cylinder map when homotopic.

    The transported simplicial homotopy A (x) interval -> B restricts to f
    at the e0 end and to g at the e1 end, which is re-verified exactly.
    """
    if f.source is not g.source and f.source.normalized != g.source.normalized:
        raise ValueError("homotopy endpoints mismatch")
    H = chain_homotopic(f.normalized_map, g.normalized_map)
    if H is None:
        return None
    A, B = f.source, f.target
    ring = A.ring
    G = cylinder_map(f.normalized_map, g.normalized_map, H.parts)
    T = degreewise_tensor(A, interval_object(ring))
    aw_map = aw(A, interval_object(ring), T)
    transported = SimplicialMap(T, B, G.compose(aw_map))
    i0 = end_inclusion(A, T, 0)
    i1 = end_inclusion(A, T, 1)
    _require(chain_map_equal(
        transported.normalized_map.compose(i0.normalized_map),
        f.normalized_map), "transported homotopy does not restrict to f")
    _require(chain_map_equal(
        transported.normalized_map.compose(i1.normalized_map),
        g.normalized_map), "transported homotopy does not restrict to g")
    return H, transported


@dataclass
class SimplicialLiftReport:
    lift: SimplicialMap | None
    obstruction_degree: int | None = None

    @property
    def found(self) -> bool:
        return self.lift is not None


def solve_hlp_simplicial(p: SimplicialMap, top: SimplicialMap,
                         bottom: SimplicialMap) -> SimplicialLiftReport:
    """Lift a homotopy along p: the square has left leg iota_0 : A -> A (x) I.

    Pipeline: normalize, lift the e0 end against N(p), then lift that
    against the shuffle comparison EZ (a trivial Hurewicz cofibration),
    and denormalize.  The returned map re-verifies against the original
    square.
    """
    A = top.source
    T = bottom.source          # A (x) interval
    E, B = p.source, p.target
    ring = A.ring
    I_obj = interval_object(ring)
    i0 = end_inclusion(A, T, 0)
    if not chain_map_equal(p.normalized_map.compose(top.normalized_map),
                           bottom.normalized_map.compose(i0.normalized_map)):
        raise ValueError("HLP square does not commute")
    fibration = h_fibration_bit(p.normalized_map)
    if not fibration.holds:
        return SimplicialLiftReport(None, fibration.obstruction["degree"])
    lay, c0, c1, _ = interval_cylinder(A.normalized, interval(ring))
    ez_map = ez(A, I_obj, T)
    _require(chain_map_equal(ez_map.compose(c0), i0.normalized_map),
             "EZ does not restrict to the e0 end")
    aux = LiftingProblem(c0, p.normalized_map, top.normalized_map,
                         bottom.normalized_map.compose(ez_map))
    h = find_lift(aux).lift
    _require(h is not None, "fibration failed the first pipeline lift")
    final = LiftingProblem(ez_map, p.normalized_map, h,
                           bottom.normalized_map)
    H = find_lift(final).lift
    _require(H is not None,
             "shuffle comparison failed the second pipeline lift")
    lift = SimplicialMap(T, E, H)
    _require(chain_map_equal(H.compose(i0.normalized_map), top.normalized_map),
             "HLP lift does not restrict to the top leg")
    _require(chain_map_equal(p.normalized_map.compose(H),
                             bottom.normalized_map),
             "HLP lift does not project to the bottom leg")
    return SimplicialLiftReport(lift)


@dataclass
class IntervalCotensor:
    """B^interval as a simplicial module with its two evaluations."""

    object: SimplicialModule
    data: CotensorData
    ev0: SimplicialMap
    ev1: SimplicialMap


def interval_cotensor(B: SimplicialModule) -> IntervalCotensor:
    ring = B.ring
    I_obj = interval_object(ring)
    data = cotensor(I_obj, B, through=B.normalized.top + 1)
    P = SimplicialModule(data.complex, GammaLevels(data.complex),
                         data.complex.top + 1)
    ev0 = _evaluation_map(data, B, P, end=0)
    ev1 = _evaluation_map(data, B, P, end=1)
    return IntervalCotensor(P, data, ev0, ev1)


def _evaluation_map(data: CotensorData, B: SimplicialModule,
                    P: SimplicialModule, end: int) -> SimplicialMap:
    """ev_end : B^I -> B by precomposing the vertex inclusion."""
    ring = B.ring
    I_obj = data.A
    NB = B.normalized
    comps = []
    vertex_chain = ChainMap(
        constant_module(ring).normalized, I_obj.normalized,
        [ModuleMap(constant_module(ring).normalized.module(0),
                   I_obj.normalized.module(0),
                   Matrix(ring, 2, 1, [[1 - end], [end]]), check=False)])
    vertex = SimplicialMap(constant_module(ring), I_obj, vertex_chain)
    for n in range(data.complex.top + 1):
        cot_mod = data.complex.module(n)
        unit_tensor = degreewise_tensor(constant_module(ring), data.disks[n])
        u = tensor_normalized_map(vertex, None, unit_tensor, data.tensors[n])
        # each generator F o u is a chain map N(c (x) Gamma D^n) = D^n -> N(B);
        # evaluate it at the disk generator
        action = Matrix.hstack_all(ring, NB.module(n).generators, [
            F.compose(u).component(n).action for F in data.spaces[n].gens])
        comps.append(ModuleMap(cot_mod, NB.module(n), action, check=False))
    return SimplicialMap(P, B, ChainMap(data.complex, NB, comps))


def solve_hep_simplicial(i: SimplicialMap, top: SimplicialMap,
                         bottom: SimplicialMap,
                         cot: IntervalCotensor) -> SimplicialLiftReport:
    """Extend a homotopy along i: the square's right leg is ev_0 : B^I -> B.

    Pipeline: normalize, push the top leg through EZ* (a trivial Hurewicz
    fibration), lift twice, denormalize; the result re-verifies.
    """
    A, X = i.source, i.target
    B = bottom.target
    if not chain_map_equal(
            cot.ev0.normalized_map.compose(top.normalized_map),
            bottom.normalized_map.compose(i.normalized_map)):
        raise ValueError("HEP square does not commute")
    cofibration = h_cofibration_bit(i.normalized_map)
    if not cofibration.holds:
        return SimplicialLiftReport(None, cofibration.obstruction["degree"])
    dual = ez_aw_dual_ops(cot.data.A, B, through=cot.data.complex.top)
    ez_star = dual.ez_star
    # hom-side evaluation at e0 and the triangle ev0 = ev0_hom o EZ*
    ev0_hom = _hom_side_evaluation(dual.hom_side, B, end=0)
    _require(chain_map_equal(ev0_hom.compose(ez_star),
                             cot.ev0.normalized_map),
             "ev0 does not factor as ev0_hom o EZ*")
    aux = LiftingProblem(i.normalized_map, ev0_hom,
                         ez_star.compose(top.normalized_map),
                         bottom.normalized_map)
    h = find_lift(aux).lift
    _require(h is not None, "cofibration failed the first pipeline lift")
    final = LiftingProblem(i.normalized_map, ez_star, top.normalized_map, h)
    H = find_lift(final).lift
    _require(H is not None, "dual shuffle comparison failed the second lift")
    lift = SimplicialMap(X, cot.object, H)
    _require(chain_map_equal(H.compose(i.normalized_map), top.normalized_map),
             "HEP lift does not restrict to the top leg")
    _require(chain_map_equal(cot.ev0.normalized_map.compose(H),
                             bottom.normalized_map),
             "HEP lift does not evaluate to the bottom leg")
    return SimplicialLiftReport(lift)


def _hom_side_evaluation(trunc, B: SimplicialModule, end: int) -> ChainMap:
    """ev_end : tau_{>=0} Hom(I, N(B)) -> N(B) on the enriching hom.

    Hom(I, N(B))_n has the generators of N(B)_n (+) N(B)_n (+) N(B)_{n+1},
    a path f read as (f(e0), f(e1), f(e)), so ev_end is a block row.  The
    source modules are read from ``trunc``, whose presentation it keeps.
    A chain map by construction: evaluation at a vertex commutes with the
    differentials, since d e0 = d e1 = 0.
    """
    from ..chains.homcx import map_from_truncation

    ring = B.ring
    NB = B.normalized
    comps = {}
    for n in range(0, trunc.complex.top + 1):
        g = NB.module(n).generators
        row = Matrix.assemble(ring, [g], [g, g, NB.module(n + 1).generators],
                              {(0, end): Matrix.identity(ring, g)})
        comps[n] = ModuleMap(trunc.window_module(n), NB.module(n), row,
                             check=False)
    return map_from_truncation(trunc, NB, comps, check=False)


@dataclass
class SimplicialPushoutProduct:
    map: SimplicialMap
    # the retractions of N(i) and of N(k), decided once
    legs: Legs
    # the h-cofibration bit of N(i [] k), with its degreewise retractions,
    # built from the legs' retractions (`decide_pushout_product`)
    cofibration: ClassBit
    # N(i [] k) is an h-equivalence, decided with those retractions; None
    # unless acyclicity is expected
    acyclic: bool | None


def pushout_product_simplicial(i: SimplicialMap, k: SimplicialMap,
                               *, expect_acyclic: bool = False
                               ) -> SimplicialPushoutProduct:
    """i [] k on the degreewise tensor, classified through normalization.

    The legs' h-cofibration bits are those of N(i) and N(k), decided once,
    after any ring change of k.  The cofibration bit is the h-cofibration
    bit of N(i [] k).  Its retraction is built from the legs' retractions
    rho and sigma by `decide_pushout_product`,

        r = inj_xw o N(rho (x) 1) + inj_yv o N((1 - i rho) (x) sigma).

    Levelwise, Gamma(rho) and Gamma(sigma) retract Gamma(i) and Gamma(k),
    so the proof in `check_pushout_product_axiom` gives a retraction of
    each level of i [] k.  Gamma(rho) acts by rho_k on each summand
    eta : [n] ->> [k] of Gamma's levels, so Gamma(rho) (x) Gamma(sigma)
    keeps degenerate coordinates apart from non-degenerate ones, as the
    simplicial maps of `tensor_normalized_map` do.  Its non-degenerate
    block, which `tensor_normalized_parts` reads, is therefore the graded
    map N(rho (x) sigma) on the quotients, and the level identities hold
    block by block on them.  Each degree is checked by multiplication;
    `is_split_mono` decides a degree only when a leg does not split or
    the check fails.

    When a leg is acyclic, ``acyclic`` decides whether N(i [] k) is an
    h-equivalence with the retractions above, by one contraction of
    coker N(i [] k) (`decide_pushout_product`), sound and complete for
    any degreewise split map by the proof of `cokernel_contraction`.
    Without ``expect_acyclic`` it is None.
    """
    if k.source.ring != i.source.ring:
        k = _change_ring_simplicial(k, i.source.ring)
    X, Y = i.source, i.target
    V, W = k.source, k.target
    xw = degreewise_tensor(X, W)
    yv = degreewise_tensor(Y, V)
    xv = degreewise_tensor(X, V)
    yw = degreewise_tensor(Y, W)
    # None is the identity of its factor
    leg_xw = tensor_normalized_map(None, k, xv, xw)
    leg_yv = tensor_normalized_map(i, None, xv, yv)
    P, inj_xw, inj_yv = pushout_complexes(leg_xw, leg_yv)
    u = tensor_normalized_map(i, None, xw, yw)
    v = tensor_normalized_map(None, k, yv, yw)
    # u o leg_xw = N(i (x) k) = v o leg_yv: the level matrices are kron
    # products and keep degenerate coordinates apart from the others
    induced = pushout_induced_chain_map(P, u, v, check=False)
    source_obj = SimplicialModule(P, GammaLevels(P), P.top + 1)
    product = SimplicialMap(source_obj, yw, induced)
    pp = PushoutProduct(induced, P, yw.normalized, inj_xw, inj_yv,
                        i.normalized_map, k.normalized_map, xw, yv, yw,
                        tensor_normalized_parts)
    return SimplicialPushoutProduct(product,
                                    *decide_pushout_product(pp,
                                                            expect_acyclic))


def _change_ring_simplicial(k: SimplicialMap, ring) -> SimplicialMap:
    from ..chains.build import change_ring_map

    nm = change_ring_map(k.normalized_map, ring)
    return gamma_map(nm)
