"""Pushout-products and the pushout-product axiom checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..chains.build import change_ring_map
from ..chains.complexes import ChainComplex, ChainMap, Retractions
from ..chains.cones import pushout_complexes, pushout_induced_chain_map
from ..chains.homotopy import cokernel_contraction, is_homotopy_equivalence
from ..chains.tensor import TensorLayout, tensor_module_maps
from ..exact.modules import ModuleMap
from .classify import bit_degrees, degreewise_retractions, retractions_bit
from .verdict import ClassBit

# the retractions of i and of k, None for a leg that does not split
Legs = tuple[Retractions | None, Retractions | None]


@dataclass(frozen=True)
class TensorModel:
    """A tensor product of complexes, as a pushout-product is built on it.

    ``object(X, Y)`` is the tensor object of two complexes and
    ``complex(T)`` its chain complex.  ``maps(f, g, S, T)`` is the graded
    tensor of module maps from the object S to the object T, degree by
    degree; a factor given as None is the identity of its complex.
    """

    object: Callable[[ChainComplex, ChainComplex], Any]
    complex: Callable[[Any], ChainComplex]
    maps: Callable[[Sequence[ModuleMap] | None, Sequence[ModuleMap] | None,
                    Any, Any], list[ModuleMap]]


@dataclass
class PushoutProduct:
    """i [] k : (X x W) u_{X x V} (Y x V)  ->  Y x W, with its source (the
    pushout) and the pushout's two injections.

    It also keeps what `decide_pushout_product` reads: the legs i and k
    (k after any ring change), the tensor objects X x W, Y x V and Y x W,
    and ``tensor``, the model they were built in.  One construction serves
    both models: `TensorLayout`s with `tensor_module_maps` for chain
    complexes, and for simplicial modules Gamma(X) (x) Gamma(W) and so on
    (`degreewise_tensor`) with `tensor_normalized_parts`, where every map
    above is the normalization N(-) of the simplicial one.
    """

    map: ChainMap
    source: ChainComplex
    target: ChainComplex
    inj_xw: ChainMap
    inj_yv: ChainMap
    i: ChainMap
    k: ChainMap
    xw: Any
    yv: Any
    yw: Any
    tensor: TensorModel


def pushout_product(i: ChainMap, k: ChainMap,
                    tensor: TensorModel | None = None) -> PushoutProduct:
    """Compute i [] k; k may live over Z when i lives over Z/m.

    The tensor is that of chain complexes unless ``tensor`` gives another
    model (`pushout_product_simplicial` passes the simplicial one).
    """
    if tensor is None:
        tensor = TensorModel(TensorLayout, TensorLayout.complex,
                             tensor_module_maps)
    if k.source.ring != i.source.ring:
        # the enriched case: coerce the Z-side complex into the module ring
        k = change_ring_map(k, i.source.ring)
    X, Y = i.source, i.target
    V, W = k.source, k.target
    xw = tensor.object(X, W)
    yv = tensor.object(Y, V)
    xv = tensor.object(X, V)
    yw = tensor.object(Y, W)

    def tensor_map(f, g, source, target) -> ChainMap:
        # a chain map by construction, as f and g are; None is an identity
        return ChainMap(tensor.complex(source), tensor.complex(target),
                        tensor.maps(f, g, source, target), check=False)

    leg_xw = tensor_map(None, k.parts, xv, xw)   # X x V -> X x W
    leg_yv = tensor_map(i.parts, None, xv, yv)   # X x V -> Y x V
    P, inj_xw, inj_yv = pushout_complexes(leg_xw, leg_yv)
    u = tensor_map(i.parts, None, xw, yw)        # X x W -> Y x W
    v = tensor_map(None, k.parts, yv, yw)        # Y x V -> Y x W
    # u o leg_xw = i (x) k = v o leg_yv in either model, so P's map is one
    induced = pushout_induced_chain_map(P, u, v, check=False)
    return PushoutProduct(induced, P, tensor.complex(yw), inj_xw, inj_yv, i,
                          k, xw, yv, yw, tensor)


def leg_retractions(i: ChainMap, k: ChainMap) -> Legs:
    """The h-cofibration witnesses of the two legs: the retractions of
    every degree of `bit_degrees`, or None for a leg that has no
    retraction in some degree."""
    def split(f: ChainMap) -> Retractions | None:
        found, missing = degreewise_retractions(
            f, bit_degrees(f, "h", "cofibration"))
        return found if missing is None else None

    return split(i), split(k)


def decide_pushout_product(pp: PushoutProduct, expect_acyclic: bool
                           ) -> tuple[Legs, ClassBit, bool | None]:
    """The legs' retractions, the h-cofibration bit of i [] k with its
    retraction built from the legs', and, only when ``expect_acyclic``,
    whether i [] k is an h-equivalence (otherwise None).

    With rho and sigma the legs' retractions, each degree's candidate is

        r = inj_xw o (rho (x) 1_W) + inj_yv o ((1 - i rho) (x) sigma),

    a retraction of i [] k by the proof in `check_pushout_product_axiom`.
    The injections are the two coordinate blocks of the pushout's
    generators (`pushout_complexes`), so r stacks its two terms.  Each
    degree's r is checked by multiplication, r o (i [] k) = id modulo the
    relations (`degreewise_retractions`), so a "yes" never rests on the
    proof.  A degree whose check fails, and every degree when a leg has no
    retraction, is searched with `is_split_mono`.  That search is needed
    for completeness: with k an isomorphism, i [] k is one even when i
    does not split.

    Acyclicity is read off those retractions, checked once, by one
    contraction of the cokernel (`cokernel_contraction`); only a product
    with no retraction is decided by its cone.  No witness of it is kept.
    """
    legs = leg_retractions(pp.i, pp.k)
    rho, sigma = legs
    candidates = None
    if rho is not None and sigma is not None:
        i, Y = pp.i, pp.i.target
        complement = [ModuleMap.identity(Y.module(n))
                      - i.component(n).compose(rho.parts[n])
                      for n in range(Y.top + 1)]
        to_xw = pp.tensor.maps(rho.parts, None, pp.yw, pp.xw)  # rho (x) 1_W
        to_yv = pp.tensor.maps(complement, sigma.parts, pp.yw, pp.yv)
        # none past a tensor's top: those degrees are left to the search
        candidates = {n: ModuleMap(pp.target.module(n), pp.source.module(n),
                                   to_xw[n].action.vstack(to_yv[n].action),
                                   check=False)
                      for n in range(min(len(to_xw), len(to_yv)))}

    found, missing = degreewise_retractions(
        pp.map, bit_degrees(pp.map, "h", "cofibration"), candidates)
    acyclic = None
    if expect_acyclic:
        acyclic = (is_homotopy_equivalence(pp.map) if missing is not None
                   else cokernel_contraction(found) is not None)
    return legs, retractions_bit(found, missing), acyclic


@dataclass
class PushoutProductReport:
    product: PushoutProduct
    legs: Legs
    cofibration: ClassBit   # with its degreewise retractions when "yes"
    acyclic: bool | None   # None when not expected/checked


def check_pushout_product_axiom(i: ChainMap, k: ChainMap, *,
                                expect_acyclic: bool = False
                                ) -> PushoutProductReport:
    """Classify i [] k in the h structure and, when a leg is acyclic,
    decide acyclicity.

    The legs' h-cofibration bits are decided once, after any ring change
    of k, and reported.  The cofibration bit is always evaluated, with its
    witness.  The fibration bit is not: the axiom does not mention it.
    Acyclicity is decided only when it is expected, with the cofibration
    bit's retractions (`decide_pushout_product`); otherwise it is None.

    The product's retraction comes from the legs'
    (`decide_pushout_product`), by Christensen and Hovey's proof that the
    pushout-product of degreewise split monos is one.  Let rho retract
    i : X -> Y and sigma retract k : V -> W, degree by degree, as graded
    maps (neither need commute with d), and

        r = inj_xw o (rho (x) 1_W) + inj_yv o ((1 - i rho) (x) sigma)

    from Y (x) W to the pushout P.  It is well defined as a sum of
    composites of module maps.  On X (x) W, since rho i = 1,

        r (i (x) 1) = inj_xw o (rho i (x) 1)
                      + inj_yv o ((i - i rho i) (x) sigma) = inj_xw.

    On Y (x) V, since sigma k = 1 and inj_xw o (1 (x) k) =
    inj_yv o (i (x) 1) in P,

        r (1 (x) k) = inj_xw o (1 (x) k)(rho (x) 1)
                      + inj_yv o ((1 - i rho) (x) 1)
                    = inj_yv o (i rho (x) 1) + inj_yv - inj_yv o (i rho (x) 1)
                    = inj_yv.

    So r o (i [] k) is the identity on both summands that generate P,
    modulo P's relations: r retracts i [] k.
    """
    pp = pushout_product(i, k)
    return PushoutProductReport(pp, *decide_pushout_product(pp,
                                                            expect_acyclic))
