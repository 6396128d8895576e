"""Pushout-products and the pushout-product axiom checks."""

from __future__ import annotations

from dataclasses import dataclass

from ..chains.build import change_ring_map
from ..chains.complexes import ChainComplex, ChainMap
from ..chains.cones import pushout_complexes, pushout_induced_chain_map
from ..chains.tensor import TensorLayout, tensor_chain_maps
from .classify import model_bit, weak_equivalence_holds
from .verdict import ClassBit

pushout = pushout_complexes


@dataclass
class PushoutProduct:
    """i [] k : (X x W) u_{X x V} (Y x V)  ->  Y x W, with its source (the
    pushout) and the pushout's two injections."""

    map: ChainMap
    source: ChainComplex
    target: ChainComplex
    inj_xw: ChainMap
    inj_yv: ChainMap


def pushout_product(i: ChainMap, k: ChainMap) -> PushoutProduct:
    """Compute i [] k; k may live over Z when i lives over Z/m."""
    if k.source.ring != i.source.ring:
        # the enriched case: coerce the Z-side complex into the module ring
        k = change_ring_map(k, i.source.ring)
    X, Y = i.source, i.target
    V, W = k.source, k.target
    xw = TensorLayout(X, W)
    yv = TensorLayout(Y, V)
    xv = TensorLayout(X, V)
    yw = TensorLayout(Y, W)
    id_x = ChainMap.identity(X)
    id_y = ChainMap.identity(Y)
    id_v = ChainMap.identity(V)
    id_w = ChainMap.identity(W)
    leg_xw = tensor_chain_maps(id_x, k, xv, xw)   # X x V -> X x W
    leg_yv = tensor_chain_maps(i, id_v, xv, yv)   # X x V -> Y x V
    P, inj_xw, inj_yv = pushout_complexes(leg_xw, leg_yv)
    u = tensor_chain_maps(i, id_w, xw, yw)        # X x W -> Y x W
    v = tensor_chain_maps(id_y, k, yv, yw)        # Y x V -> Y x W
    # u o leg_xw = i (x) k = v o leg_yv, blockwise kron products
    induced = pushout_induced_chain_map(P, u, v, check=False)
    return PushoutProduct(induced, P, yw.complex(), inj_xw, inj_yv)


@dataclass
class PushoutProductReport:
    product: PushoutProduct
    cofibration: ClassBit   # with its degreewise retractions when "yes"
    acyclic: bool | None   # None when not expected/checked


def check_pushout_product_axiom(i: ChainMap, k: ChainMap, flavor: str = "h",
                                *, expect_acyclic: bool = False
                                ) -> PushoutProductReport:
    """Classify i [] k and, when a leg is acyclic, decide acyclicity.

    The cofibration bit is always evaluated, with its witness.  The
    fibration bit is not: the axiom does not mention it.  Acyclicity is
    decided only when it is expected, by `weak_equivalence_holds`, which
    builds no witness; otherwise it is None.
    """
    pp = pushout_product(i, k)
    cofibration = model_bit(pp.map, flavor, "cofibration")
    acyclic = (weak_equivalence_holds(pp.map, flavor) if expect_acyclic
               else None)
    return PushoutProductReport(pp, cofibration, acyclic)
