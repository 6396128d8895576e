"""Lifting problems and chain-level sections/retractions.

The diagonal of a lifting square is one unknown chain map whose relations
of degree n name only h_n and h_{n-1}; one sweep up the degrees
(`solve_by_degree`) gives the lift or the first degree with no solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chains.build import zero_complex
from ..chains.complexes import ChainMap, LiftingProblem, chain_map_equal
from ..errors import CertificateError
from ..exact.equations import (MapVariable, MatrixRelation, solve_by_degree,
                               well_definedness)
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from .classify import model_bit, weak_equivalence_holds
from .verdict import NO, YES


def lift_steps(problem: LiftingProblem
               ) -> list[tuple[MapVariable, list[MatrixRelation]]]:
    """The diagonal h_0..h_top degree by degree, for `solve_by_degree`:
    h_n o left_n = top_n, right_n o h_n = bottom_n, h_n well defined and,
    from degree 1 on, h_{n-1} d_n = d_n h_n."""
    left, right = problem.left, problem.right
    X, E = left.target, right.source
    ring = X.ring
    steps = []
    for n in range(max(X.top, E.top, left.source.top,
                       right.target.top) + 1):
        X_n, E_n = X.module(n), E.module(n)
        h = MapVariable(f"h{n}", X_n, E_n)
        id_X = Matrix.identity(ring, X_n.generators)
        relations = [
            MatrixRelation([(1, Matrix.identity(ring, E_n.generators), h.name,
                             left.component(n).action)],
                           problem.top.component(n).action, E_n.relations),
            MatrixRelation([(1, right.component(n).action, h.name, id_X)],
                           problem.bottom.component(n).action,
                           right.target.module(n).relations),
            well_definedness(h)]
        if n:
            E_prev = E.module(n - 1)
            relations.append(MatrixRelation(
                [(1, Matrix.identity(ring, E_prev.generators), f"h{n - 1}",
                  X.differential(n).action),
                 (-1, E.differential(n).action, h.name, id_X)],
                Matrix.zero(ring, E_prev.generators, X_n.generators),
                E_prev.relations))
        steps.append((h, relations))
    return steps


@dataclass
class LiftOutcome:
    """A lift, or the first degree at which the square has none; the
    prechecks are those of `solve_lifting`."""

    lift: ChainMap | None
    obstruction_degree: int | None = None
    prechecks: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.lift is not None


def find_lift(problem: LiftingProblem) -> LiftOutcome:
    """The diagonal h with h o left = top and right o h = bottom, or the
    smallest degree k whose degree-<=k part of the square has none."""
    X, E = problem.left.target, problem.right.source
    parts, degree = solve_by_degree(X.ring, lift_steps(problem))
    if parts is None:
        return LiftOutcome(None, degree)
    lift = ChainMap(X, E, [ModuleMap(X.module(n), E.module(n), h, check=False)
                           for n, h in enumerate(parts)])
    if not (chain_map_equal(lift.compose(problem.left), problem.top)
            and chain_map_equal(problem.right.compose(lift), problem.bottom)):
        raise CertificateError("computed lift does not fill the square")
    return LiftOutcome(lift)


def solve_lifting(problem: LiftingProblem, flavor: str = "h",
                  acyclic_leg: str = "left") -> LiftOutcome:
    """Solve a model-structure lifting problem.

    Three bits are decided first: the left leg's cofibration bit, the
    right leg's fibration bit and the weak-equivalence bit of the
    designated acyclic leg; failed prechecks are reported but the solve is
    still attempted.  When no lift exists the smallest degree whose
    truncated subsystem is inconsistent is reported.
    """
    prechecks = lift_prechecks(problem.left, problem.right, flavor,
                               acyclic_leg)
    outcome = find_lift(problem)
    outcome.prechecks = prechecks
    return outcome


def lift_prechecks(left: ChainMap, right: ChainMap, flavor: str,
                   acyclic_leg: str) -> dict:
    """The statuses `solve_lifting` reports before it solves; the acyclic
    leg's bit is decided without building its witness."""
    acyclic = left if acyclic_leg == "left" else right
    return {
        "left_cofibration": model_bit(left, flavor, "cofibration").status,
        "right_fibration": model_bit(right, flavor, "fibration").status,
        "acyclic_leg": acyclic_leg,
        "acyclic": YES if weak_equivalence_holds(acyclic, flavor) else NO,
    }


def chain_section(q: ChainMap) -> ChainMap | None:
    """A chain map s with q o s = id on the target of q: a lift in the
    square (0 -> B, q, 0 -> A, id_B)."""
    zero = zero_complex(q.source.ring)
    return find_lift(LiftingProblem(
        ChainMap.zero(zero, q.target), q, ChainMap.zero(zero, q.source),
        ChainMap.identity(q.target), check=False)).lift


def chain_retraction(j: ChainMap) -> ChainMap | None:
    """A chain map r with r o j = id on the source of j: a lift in the
    square (j, A -> 0, id_A, X -> 0)."""
    zero = zero_complex(j.source.ring)
    return find_lift(LiftingProblem(
        j, ChainMap.zero(j.source, zero), ChainMap.identity(j.source),
        ChainMap.zero(j.target, zero), check=False)).lift
