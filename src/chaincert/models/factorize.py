"""Cylinder and cocylinder factorizations, re-verified by the classifiers."""

from __future__ import annotations

from dataclasses import dataclass

from ..chains.complexes import ChainMap, chain_map_equal
from ..chains.cones import mapping_cocylinder, mapping_cylinder
from ..errors import CertificateError
from .classify import classify
from .verdict import Verdict


@dataclass
class Factorization:
    first: ChainMap            # the cofibration-type leg
    second: ChainMap           # the fibration-type leg
    first_verdict: Verdict
    second_verdict: Verdict

    def composes_to(self, f: ChainMap) -> bool:
        return chain_map_equal(self.second.compose(self.first), f)


@dataclass
class FactorizationReport:
    cylinder: Factorization    # f = (Mf -> Y) o (X -> Mf)
    cocylinder: Factorization  # f = (Nf -> Y) o (X -> Nf)


def factorize_h(f: ChainMap) -> FactorizationReport:
    """Both standard factorizations of f, with classifier verdicts.

    The cylinder leg X -> Mf is an h-cofibration and Mf -> Y an acyclic
    h-fibration; dually for the cocylinder.  The report carries the full
    verdicts so callers can re-verify rather than trust.
    """
    cyl = mapping_cylinder(f)
    cyl_fact = Factorization(cyl.cofibration, cyl.projection,
                             classify(cyl.cofibration, "h"),
                             classify(cyl.projection, "h"))
    if not cyl_fact.composes_to(f):
        raise CertificateError("cylinder factorization does not compose to f")
    cocyl = mapping_cocylinder(f)
    cocyl_fact = Factorization(cocyl.section_leg, cocyl.fibration_leg,
                               classify(cocyl.section_leg, "h"),
                               classify(cocyl.fibration_leg, "h"))
    if not cocyl_fact.composes_to(f):
        raise CertificateError("cocylinder factorization does not compose "
                               "to f")
    return FactorizationReport(cyl_fact, cocyl_fact)
