"""Lifting problems and chain-level sections/retractions.

The diagonal of a lifting square is one unknown chain map; its square
conditions, the chain condition and well-definedness form one system of
map relations, which `solve_map_relations` solves by its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chains.build import zero_complex
from ..chains.complexes import ChainComplex, ChainMap, LiftingProblem, \
    chain_map_equal
from ..errors import CertificateError
from ..exact.equations import (MapVariable, MatrixRelation,
                               solve_map_relations, well_definedness)
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from .classify import model_bit


def _unknown_chain_map(X: ChainComplex, Y: ChainComplex, prefix: str, top: int
                       ) -> tuple[list[MapVariable], list[MatrixRelation]]:
    """Variables h_0..h_top with chain-map and well-definedness relations."""
    ring = X.ring
    variables = [MapVariable(f"{prefix}{n}", X.module(n), Y.module(n))
                 for n in range(top + 1)]
    relations: list[MatrixRelation] = []
    for n in range(1, top + 1):
        relations.append(MatrixRelation(
            terms=[(1, Matrix.identity(ring, Y.module(n - 1).generators),
                    f"{prefix}{n - 1}", X.differential(n).action),
                   (-1, Y.differential(n).action, f"{prefix}{n}",
                    Matrix.identity(ring, X.module(n).generators))],
            rhs=Matrix.zero(ring, Y.module(n - 1).generators,
                            X.module(n).generators),
            mod=Y.module(n - 1).relations,
        ))
    return variables, relations + [well_definedness(v) for v in variables]


def _composition_relations(ring, prefix: str, top: int, *, pre: ChainMap | None,
                           post: ChainMap | None, equals: ChainMap
                           ) -> list[MatrixRelation]:
    """Relations (post o h o pre) = equals, degreewise."""
    out = []
    for n in range(top + 1):
        tgt = equals.component(n).target
        L = (post.component(n).action if post is not None
             else Matrix.identity(ring, tgt.generators))
        if pre is not None:
            src_gens = pre.component(n).source.generators
            R = pre.component(n).action
        else:
            src_gens = equals.component(n).source.generators
            R = Matrix.identity(ring, src_gens)
        out.append(MatrixRelation(
            terms=[(1, L, f"{prefix}{n}", R)],
            rhs=equals.component(n).action,
            mod=tgt.relations,
        ))
    return out


def _lift_top(problem: LiftingProblem) -> int:
    return max(problem.left.target.top, problem.right.source.top,
               problem.left.source.top, problem.right.target.top)


def _lift_system(problem: LiftingProblem, top: int
                 ) -> tuple[list[MapVariable], list[MatrixRelation]]:
    """The diagonal h_0..h_top: a chain map with h o left = top and
    right o h = bottom through degree ``top``."""
    X, E = problem.left.target, problem.right.source
    variables, relations = _unknown_chain_map(X, E, "h", top)
    relations += _composition_relations(X.ring, "h", top, pre=problem.left,
                                        post=None, equals=problem.top)
    relations += _composition_relations(X.ring, "h", top, pre=None,
                                        post=problem.right,
                                        equals=problem.bottom)
    return variables, relations


def find_lift(problem: LiftingProblem) -> ChainMap | None:
    """The diagonal h with h o left = top and right o h = bottom, if any."""
    X = problem.left.target
    E = problem.right.source
    top_deg = _lift_top(problem)
    sol = solve_map_relations(X.ring, *_lift_system(problem, top_deg))
    if sol is None:
        return None
    comps = [ModuleMap(X.module(n), E.module(n), sol[f"h{n}"], check=False)
             for n in range(top_deg + 1)]
    lift = ChainMap(X, E, comps)
    if not (chain_map_equal(lift.compose(problem.left), problem.top)
            and chain_map_equal(problem.right.compose(lift), problem.bottom)):
        raise CertificateError("computed lift does not fill the square")
    return lift


@dataclass
class LiftOutcome:
    lift: ChainMap | None
    obstruction_degree: int | None = None
    prechecks: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.lift is not None


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
    lift = find_lift(problem)
    if lift is not None:
        return LiftOutcome(lift, prechecks=prechecks)
    return LiftOutcome(None, obstruction_degree=obstruction_degree(problem),
                       prechecks=prechecks)


def lift_prechecks(left: ChainMap, right: ChainMap, flavor: str,
                   acyclic_leg: str) -> dict:
    """The statuses `solve_lifting` reports before it solves."""
    acyclic = left if acyclic_leg == "left" else right
    return {
        "left_cofibration": model_bit(left, flavor, "cofibration").status,
        "right_fibration": model_bit(right, flavor, "fibration").status,
        "acyclic_leg": acyclic_leg,
        "acyclic": model_bit(acyclic, flavor, "weak_equivalence").status,
    }


def obstruction_degree(problem: LiftingProblem) -> int | None:
    """Smallest k whose degree-<=k subsystem already has no solution; None
    when the whole system, the last of them, solves (a lift exists)."""
    for k in range(_lift_top(problem) + 1):
        if solve_map_relations(problem.left.target.ring,
                               *_lift_system(problem, k)) is None:
            return k
    return None


def chain_section(q: ChainMap) -> ChainMap | None:
    """A chain map s with q o s = id on the target of q: a lift in the
    square (0 -> B, q, 0 -> A, id_B)."""
    zero = zero_complex(q.source.ring)
    return find_lift(LiftingProblem(
        ChainMap.zero(zero, q.target), q, ChainMap.zero(zero, q.source),
        ChainMap.identity(q.target), check=False))


def chain_retraction(j: ChainMap) -> ChainMap | None:
    """A chain map r with r o j = id on the source of j: a lift in the
    square (j, A -> 0, id_A, X -> 0)."""
    zero = zero_complex(j.source.ring)
    return find_lift(LiftingProblem(
        j, ChainMap.zero(j.source, zero), ChainMap.identity(j.source),
        ChainMap.zero(j.target, zero), check=False))
