"""Witness-producing classifiers for the h, q, m and Bousfield structures.

Degree conventions (explicit, per flavor):
  * h- and q- and m-fibrations are tested in degrees >= 1 only;
  * h-, q- and m-cofibrations are tested in every degree;
  * the Bousfield dual on cochain complexes swaps the asymmetry:
    fibrations are tested in all degrees, cofibrations only in degrees >= 1.
Acyclicity means chain homotopy equivalence for h and Bousfield, and
quasi-isomorphism for q and m; the two notions are never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chains.cochain import CochainMap, undualize_map
from ..chains.complexes import ChainMap, chain_map_equal
from ..chains.cones import mapping_cone
from ..chains.homology import homology_data
from ..chains.homotopy import (HomotopyEquivalence, is_chain_homotopy_equivalence,
                               quasi_iso)
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, cokernel, kernel
from ..exact.snf import solve
from ..exact.splitting import is_split_epi, is_split_mono, projective_section
from ..io.document import graded_to_json, map_to_json
from .verdict import ClassBit, Verdict, no, unknown, yes

FLAVORS = ("h", "q", "m")


def _degree_range(f: ChainMap) -> range:
    return range(max(f.source.top, f.target.top) + 1)


def split_mono_bit(f: ChainMap, degrees) -> ClassBit:
    retractions = {}
    for n in degrees:
        r = is_split_mono(f.component(n))
        if r is None:
            return no(degree=n, reason="no retraction at this degree")
        retractions[str(n)] = r.action.to_json()
    return yes({"type": "degreewise_retractions", "degrees": retractions})


def split_epi_bit(f: ChainMap, degrees) -> ClassBit:
    sections = {}
    for n in degrees:
        s = is_split_epi(f.component(n))
        if s is None:
            return no(degree=n, reason="no section at this degree")
        sections[str(n)] = s.action.to_json()
    return yes({"type": "degreewise_sections", "degrees": sections})


def homotopy_equivalence_bit(f: ChainMap) -> ClassBit:
    he = is_chain_homotopy_equivalence(f)
    if he is None:
        return _homotopy_equivalence_obstruction(f)
    return yes(homotopy_equivalence_witness(he))


def homotopy_equivalence_witness(he: HomotopyEquivalence) -> dict:
    return {
        "type": "homotopy_equivalence",
        "inverse": map_to_json(he.inverse),
        "homotopy_source": map_to_json(he.source_homotopy),
        "homotopy_target": map_to_json(he.target_homotopy),
    }


def _homotopy_equivalence_obstruction(f: ChainMap) -> ClassBit:
    cone = mapping_cone(f)
    for n in range(cone.complex.top + 1):
        H = homology_data(cone.complex, n).homology
        if not H.is_zero_module():
            inv = H.minimal_presentation().minimal_invariants()
            return no(degree=n, reason=f"mapping cone has homology {inv} "
                                       f"in degree {n}")
    return no(reason="mapping cone is acyclic but not contractible")


def surjectivity_bit(f: ChainMap, degrees) -> ClassBit:
    certs = {}
    for n in degrees:
        fn = f.component(n)
        gY = fn.target.generators
        sol = solve(fn.action.hstack(fn.target.relations),
                    Matrix.identity(fn.source.ring, gY))
        if sol is None:
            return no(degree=n, reason="not surjective at this degree")
        gX = fn.source.generators
        certs[str(n)] = {
            "preimages": sol.submatrix(range(gX), range(gY)).to_json(),
            "relation_part": sol.submatrix(range(gX, sol.rows),
                                           range(gY)).to_json(),
        }
    return yes({"type": "degreewise_surjectivity", "degrees": certs})


def q_cofibration_bit(f: ChainMap) -> ClassBit:
    ring = f.source.ring
    degrees = {}
    for n in _degree_range(f):
        fn = f.component(n)
        ker, incl = kernel(fn)
        if not ker.is_zero_module():
            return no(degree=n, reason="not injective at this degree")
        factor = solve(fn.source.relations, incl.action)
        coker, _ = cokernel(fn)
        section = projective_section(coker)
        if section is None:
            return no(degree=n, reason="cokernel not projective at this degree")
        retraction = is_split_mono(fn)
        assert retraction is not None, \
            "mono with projective cokernel must split"
        degrees[str(n)] = {
            "kernel_generators": incl.action.to_json(),
            "kernel_factorization": factor.to_json() if factor is not None else [],
            "cokernel": coker.to_json(),
            "cokernel_section": section.action.to_json(),
            "retraction": retraction.action.to_json(),
        }
    return yes({"type": "q_cofibration", "degrees": degrees})


def quasi_iso_bit(f: ChainMap) -> ClassBit:
    cone = mapping_cone(f)
    invariants = {}
    for n in range(cone.complex.top + 1):
        H = homology_data(cone.complex, n).homology
        if not H.is_zero_module():
            inv = H.minimal_presentation().minimal_invariants()
            return no(degree=n, reason=f"cone homology {inv} in degree {n}")
        invariants[str(n)] = {"free_rank": 0, "factors": []}
    return yes({"type": "cone_exactness", "cone": graded_to_json(cone.complex),
                "degrees": invariants})


def h_cofibration_bit(f: ChainMap) -> ClassBit:
    return split_mono_bit(f, _degree_range(f))


def h_fibration_bit(f: ChainMap) -> ClassBit:
    return split_epi_bit(f, [n for n in _degree_range(f) if n >= 1])


def classify(f: ChainMap, flavor: str) -> Verdict:
    """Classify a chain map in the Hurewicz, Quillen or mixed structure."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r} for chain data; "
                         f"use bousfield_classify for cochain data")
    all_degrees = _degree_range(f)
    positive = [n for n in all_degrees if n >= 1]
    if flavor == "h":
        return Verdict("h",
                       cofibration=split_mono_bit(f, all_degrees),
                       fibration=split_epi_bit(f, positive),
                       weak_equivalence=homotopy_equivalence_bit(f))
    if flavor == "q":
        return Verdict("q",
                       cofibration=q_cofibration_bit(f),
                       fibration=surjectivity_bit(f, positive),
                       weak_equivalence=quasi_iso_bit(f))
    return Verdict("m",
                   cofibration=unknown(
                       "m-cofibrations are defined by a lifting property; "
                       "supply a factorization witness to verify_m_cofibration"),
                   fibration=split_epi_bit(f, positive),
                   weak_equivalence=quasi_iso_bit(f))


def bousfield_classify(g: CochainMap) -> Verdict:
    """Classify a cochain map in the dual (Bousfield) structure.

    Fibrations are degreewise split epimorphisms in every degree including
    zero; cofibrations are split monomorphisms in positive degrees only;
    weak equivalences are cochain homotopy equivalences, decided through the
    grading reversal and the mapping-cone contraction.
    """
    if not isinstance(g, CochainMap):
        raise TypeError("bousfield_classify expects cochain data")
    top = max(g.source.top, g.target.top)
    sections = {}
    fib: ClassBit | None = None
    for n in range(top + 1):
        s = is_split_epi(g.component(n))
        if s is None:
            fib = no(degree=n, reason="no section at this degree")
            break
        sections[str(n)] = s.action.to_json()
    if fib is None:
        fib = yes({"type": "degreewise_sections", "degrees": sections})

    retractions = {}
    cof: ClassBit | None = None
    for n in range(1, top + 1):
        r = is_split_mono(g.component(n))
        if r is None:
            cof = no(degree=n, reason="no retraction at this degree")
            break
        retractions[str(n)] = r.action.to_json()
    if cof is None:
        cof = yes({"type": "degreewise_retractions", "degrees": retractions})

    reversed_map = undualize_map(g)
    he = is_chain_homotopy_equivalence(reversed_map)
    if he is None:
        we = no(reason="grading-reversed map is not a homotopy equivalence")
    else:
        payload = homotopy_equivalence_witness(he)
        payload["type"] = "cochain_homotopy_equivalence"
        payload["reversed_top"] = top
        we = yes(payload)
    return Verdict("bousfield", cofibration=cof, fibration=fib,
                   weak_equivalence=we)


@dataclass
class MCofibrationWitness:
    """Factorization j = equivalence o q-cofibration through `mid`."""

    mid: object                  # ChainComplex
    q_cofibration: ChainMap      # i : A -> mid
    equivalence: ChainMap        # f : mid -> X


def verify_m_cofibration(j: ChainMap, w: MCofibrationWitness) -> bool:
    """Check the three certificate conditions; never decides by itself."""
    if (w.q_cofibration.source != j.source
            or w.equivalence.target != j.target
            or w.q_cofibration.target != w.equivalence.source):
        raise ValueError("witness endpoints do not match the map")
    if not chain_map_equal(w.equivalence.compose(w.q_cofibration), j):
        return False
    if not classify(w.q_cofibration, "q").cofibration.holds:
        return False
    return is_chain_homotopy_equivalence(w.equivalence) is not None
