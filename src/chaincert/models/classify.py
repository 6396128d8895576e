"""The model-structure conventions, and the deciders behind each bit.

This module is the only one that knows which decider makes up each bit
of each structure, which degrees it covers and which witness its "yes"
carries.  Classifiers, pushout-product checks and lifting prechecks ask
`classify` and `model_bit`; a caller that reads only whether a map is a
weak equivalence asks `weak_equivalence_holds`, which builds no witness;
`verify` asks `model_bit`, `weak_equivalence_holds`, `bit_degrees` and
`WITNESS_TYPES`:

  flavor     data     bit    decider, degrees       "yes" witness type
  h          chain    cof.   split mono, n >= 0     degreewise_retractions
                      fib.   split epi, n >= 1      degreewise_sections
                      w.e.   exact cone, contracts  homotopy_equivalence
  q          chain    cof.   q-cofibration, n >= 0  q_cofibration
                      fib.   surjective, n >= 1     degreewise_surjectivity
                      w.e.   exact cone             cone_exactness
  m          chain    cof.   unknown                (none)
                      fib.   split epi, n >= 1      degreewise_sections
                      w.e.   exact cone             cone_exactness
  bousfield  cochain  cof.   split mono, n >= 1     degreewise_retractions
                      fib.   split epi, n >= 0      degreewise_sections
                      w.e.   homotopy equivalence   cochain_homotopy_equivalence

Every weak-equivalence decider sweeps the mapping cone for exactness
first, one Smith form per degree (`first_inexact_degree`).  A
quasi-isomorphism is an exact cone.  In h, q and m a cone that is not
exact is a "no" at the lowest failing degree, with the homology
presented there alone (`first_homology`); the Bousfield "no" names no
degree.  An h or Bousfield "yes" contracts the cone only once it is
exact, and an exact cone that does not contract is a "no" with no
degree.

`verify` accepts a "yes" on its witness alone, checked by multiplication
(a q_cofibration witness against the closed-form cokernel [rel | f] of
each component), except a cone_exactness witness, which it compares with
a recomputation.
It decides every "no" or "unknown" bit again, that bit alone: a
weak equivalence with `weak_equivalence_holds`, any other bit with
`model_bit`.  A degreewise "no" must name one of the convention's
degrees as its obstruction degree and is decided again at that degree
only, so a missing degree, one outside the convention, or one that does
not fail is refused.

Degreewise bits test degrees up to the larger top of the two endpoints;
a cochain map's two ends share one top, ``g.top``.  A q-cofibration is,
in every degree, an injection with projective cokernel (so a split
mono).  The m-cofibrations are defined by a lifting property, so that
bit stays unknown and is certified only from a factorization witness
(`verify_m_cofibration`).  The Bousfield dual on cochain complexes swaps
which class skips degree 0; its degreewise bits read the components g^k
of the cochain map, and its weak equivalences are decided on the
grading-reversed chain map ``g.chain``.  A split-mono "yes" is one
checked `Retractions` value (`degreewise_retractions`), which callers
pass on, so no retraction is multiplied out twice.  Chain homotopy
equivalence and quasi-isomorphism are never conflated.  Simplicial maps
are classified by their normalization in the h structure.

Deciders are looked up as module globals at call time, so that a tracer
which rebinds them sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..chains.cochain import CochainMap
from ..chains.complexes import ChainMap, Retractions, chain_map_equal
from ..chains.cones import mapping_cone
from ..chains.homology import first_homology
from ..chains.homotopy import (HomotopyEquivalence, cone_equivalence,
                               find_contraction,
                               is_chain_homotopy_equivalence,
                               is_homotopy_equivalence, quasi_iso)
from ..errors import CertificateError
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, cokernel, kernel, map_equal
from ..exact.snf import solve
from ..exact.splitting import is_split_epi, is_split_mono, projective_section
from ..io.document import graded_to_json, map_to_json
from .verdict import ClassBit, Verdict, no, unknown, yes

FLAVORS = ("h", "q", "m", "bousfield")
BITS = ("cofibration", "fibration", "weak_equivalence")

# (flavor, bit) -> the type of the witness a "yes" carries; the
# m-cofibration bit is never "yes"
WITNESS_TYPES = {
    ("h", "cofibration"): "degreewise_retractions",
    ("h", "fibration"): "degreewise_sections",
    ("h", "weak_equivalence"): "homotopy_equivalence",
    ("q", "cofibration"): "q_cofibration",
    ("q", "fibration"): "degreewise_surjectivity",
    ("q", "weak_equivalence"): "cone_exactness",
    ("m", "fibration"): "degreewise_sections",
    ("m", "weak_equivalence"): "cone_exactness",
    ("bousfield", "cofibration"): "degreewise_retractions",
    ("bousfield", "fibration"): "degreewise_sections",
    ("bousfield", "weak_equivalence"): "cochain_homotopy_equivalence",
}


def flavor_data(flavor: str) -> str:
    """The data a flavor classifies: "cochain" for Bousfield, else "chain"."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return "cochain" if flavor == "bousfield" else "chain"


def check_data(f: ChainMap | CochainMap, flavor: str) -> None:
    """Raise ValueError unless ``f`` is the kind of data ``flavor`` takes."""
    data = flavor_data(flavor)
    if isinstance(f, CochainMap) != (data == "cochain"):
        raise ValueError(f"flavor {flavor} needs {data} data")


def bit_degrees(f: ChainMap | CochainMap, flavor: str, kind: str) -> range:
    """The degrees the cofibration or fibration bit of ``flavor`` tests."""
    check_data(f, flavor)
    if kind not in ("cofibration", "fibration"):
        raise ValueError(f"the {kind} bit is not decided degreewise")
    skips_zero = (kind == "fibration") != (flavor == "bousfield")
    top = f.top if flavor == "bousfield" else max(f.source.top, f.target.top)
    return range(1 if skips_zero else 0, top + 1)


def model_bit(f: ChainMap | CochainMap, flavor: str, kind: str,
              degrees: range | None = None) -> ClassBit:
    """One bit (``kind`` in BITS) of ``f`` in one structure, with witness.

    ``degrees``, a part of `bit_degrees`, narrows a degreewise bit to
    those degrees; the other bits ignore it.
    """
    check_data(f, flavor)
    if kind == "weak_equivalence":
        if flavor == "h":
            return homotopy_equivalence_bit(f)
        if flavor == "bousfield":
            return _cochain_homotopy_equivalence_bit(f)
        return quasi_iso_bit(f)
    if kind == "cofibration" and flavor == "m":
        return unknown("m-cofibrations are defined by a lifting property; "
                       "supply a factorization witness to "
                       "verify_m_cofibration")
    if degrees is None:
        degrees = bit_degrees(f, flavor, kind)
    if kind == "cofibration":
        if flavor == "q":
            return q_cofibration_bit(f, degrees)
        return split_mono_bit(f, degrees)
    if flavor == "q":
        return surjectivity_bit(f, degrees)
    return split_epi_bit(f, degrees)


def weak_equivalence_holds(f: ChainMap | CochainMap, flavor: str) -> bool:
    """The weak-equivalence bit of ``f`` in ``flavor``, without a witness.

    Decided as `model_bit` decides it, for a caller that reads only the
    answer.
    """
    check_data(f, flavor)
    if flavor == "h":
        return is_homotopy_equivalence(f)
    if flavor == "bousfield":
        return is_homotopy_equivalence(f.chain)
    return quasi_iso(f)


def classify(f: ChainMap | CochainMap, flavor: str) -> Verdict:
    """Classify a chain map in h, q or m, or a cochain map in Bousfield."""
    return Verdict(flavor, *(model_bit(f, flavor, kind) for kind in BITS))


def bousfield_classify(g: CochainMap) -> Verdict:
    """Classify a cochain map in the dual (Bousfield) structure."""
    if not isinstance(g, CochainMap):
        raise TypeError("bousfield_classify expects cochain data")
    return classify(g, "bousfield")


def degreewise_retractions(f: ChainMap, degrees,
                           candidates: Mapping[int, ModuleMap] | None = None
                           ) -> tuple[Retractions, int | None]:
    """Retractions of the components of ``f`` in ``degrees``, up to the
    first degree that has none, and that degree (None when every degree
    has one).

    ``candidates``, when given, may hold a retraction r of f_n for some
    degrees n.  It is kept when r o f_n = id holds modulo the relations,
    checked by multiplication; otherwise degree n is searched with
    `is_split_mono`.  So a candidate never changes the answer, only how
    it is found.
    """
    found: dict[int, ModuleMap] = {}
    missing = None
    for n in degrees:
        fn = f.component(n)
        r = candidates.get(n) if candidates is not None else None
        if r is None or not map_equal(r.compose(fn),
                                      ModuleMap.identity(fn.source)):
            r = is_split_mono(fn)
        if r is None:
            missing = n
            break
        found[n] = r
    # each r_n is checked: a candidate above, a searched one by
    # `is_split_mono` on this content, now or earlier in the process
    return Retractions(f, found, check=False), missing


def split_mono_bit(f: ChainMap, degrees) -> ClassBit:
    """The split-mono bit over ``degrees``, by `degreewise_retractions`."""
    return retractions_bit(*degreewise_retractions(f, degrees))


def retractions_bit(found: Retractions, missing: int | None) -> ClassBit:
    """The split-mono bit of an answer of `degreewise_retractions`."""
    if missing is not None:
        return no(degree=missing, reason="no retraction at this degree")
    return yes({"type": "degreewise_retractions",
                "degrees": {str(n): r.action.to_json()
                            for n, r in found.parts.items()}})


def split_epi_bit(f: ChainMap, degrees) -> ClassBit:
    sections = {}
    for n in degrees:
        s = is_split_epi(f.component(n))
        if s is None:
            return no(degree=n, reason="no section at this degree")
        sections[str(n)] = s.action.to_json()
    return yes({"type": "degreewise_sections", "degrees": sections})


def homotopy_equivalence_bit(f: ChainMap) -> ClassBit:
    """A cone that is not exact is a "no" at the degree where exactness
    fails, with no contraction solve; only an exact cone is contracted."""
    cone = mapping_cone(f)
    found = first_homology(cone)
    if found is not None:
        n, H = found
        inv = H.minimal_invariants()
        return no(degree=n, reason=f"mapping cone has homology {inv} "
                                   f"in degree {n}")
    s = find_contraction(cone)
    if s is None:
        return no(reason="mapping cone is acyclic but not contractible")
    return yes(homotopy_equivalence_witness(cone_equivalence(f, s)))


def homotopy_equivalence_witness(he: HomotopyEquivalence) -> dict:
    return {
        "type": "homotopy_equivalence",
        "inverse": map_to_json(he.inverse),
        "homotopy_source": map_to_json(he.source_homotopy),
        "homotopy_target": map_to_json(he.target_homotopy),
    }


def _cochain_homotopy_equivalence_bit(g: CochainMap) -> ClassBit:
    he = is_chain_homotopy_equivalence(g.chain)
    if he is None:
        return no(reason="grading-reversed map is not a homotopy equivalence")
    return yes({**homotopy_equivalence_witness(he),
                "type": "cochain_homotopy_equivalence",
                "reversed_top": g.top})


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


def q_cofibration_bit(f: ChainMap, degrees: range | None = None,
                      retractions: Retractions | None = None) -> ClassBit:
    """The q-cofibration bit of ``f`` over ``degrees`` (by default the
    convention's).  A caller that holds ``retractions`` of f in these
    degrees (say, a pushout-product leg's) passes them, so f is not
    searched again with `is_split_mono`."""
    if degrees is None:
        degrees = bit_degrees(f, "q", "cofibration")
    certs = {}
    for n in degrees:
        fn = f.component(n)
        retraction = (is_split_mono(fn) if retractions is None
                      else retractions.parts[n])
        # a retraction proves injectivity; the kernel is computed only to
        # tell the two "no" reasons apart
        if retraction is None and not kernel(fn)[0].is_zero_module():
            return no(degree=n, reason="not injective at this degree")
        section = projective_section(cokernel(fn)[0])
        if section is None:
            return no(degree=n, reason="cokernel not projective at this degree")
        if retraction is None:
            raise CertificateError("a mono with projective cokernel must "
                                   f"split, but degree {n} does not")
        certs[str(n)] = {
            "cokernel_section": section.action.to_json(),
            "retraction": retraction.action.to_json(),
        }
    return yes({"type": "q_cofibration", "degrees": certs})


def quasi_iso_bit(f: ChainMap) -> ClassBit:
    cone = mapping_cone(f)
    found = first_homology(cone)
    if found is not None:
        n, H = found
        inv = H.minimal_invariants()
        return no(degree=n, reason=f"cone homology {inv} in degree {n}")
    return yes({"type": "cone_exactness", "cone": graded_to_json(cone),
                "degrees": {str(n): {"free_rank": 0, "factors": []}
                            for n in range(cone.top + 1)}})


def h_cofibration_bit(f: ChainMap) -> ClassBit:
    return model_bit(f, "h", "cofibration")


def h_fibration_bit(f: ChainMap) -> ClassBit:
    return model_bit(f, "h", "fibration")


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
    if not q_cofibration_bit(w.q_cofibration).holds:
        return False
    return is_homotopy_equivalence(w.equivalence)
