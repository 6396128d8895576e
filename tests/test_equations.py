"""Routes of solve_map_relations and the degree sweep: the decoupled shapes
and the sweep against the flattened system, and every solution re-checked
by multiplication."""

import json
import random
from functools import partial
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chaincert.certify import SUITES
from chaincert.chains.build import zero_complex
from chaincert.chains.complexes import ChainMap, LiftingProblem
from chaincert.cli import main
from chaincert.exact import equations
from chaincert.exact.equations import (MapVariable, MatrixRelation,
                                       solve_by_degree, solve_map_relations)
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import ModuleMap, PresentedModule, factor_through
from chaincert.exact.rings import ZZ, Zmod
from chaincert.exact.snf import solve
from chaincert.exact.splitting import (is_split_epi, is_split_mono,
                                      projective_section)
from chaincert.models.generators import random_chain_map, random_complex
from chaincert.models.lifting import lift_steps

from oracles import is_projective

RINGS = [ZZ, Zmod(6)]


def draw_matrix(draw, ring, rows, cols):
    entries = st.lists(st.lists(st.integers(-3, 3), min_size=cols,
                                max_size=cols), min_size=rows, max_size=rows)
    return Matrix(ring, rows, cols, draw(entries))


def draw_rhs(draw, ring, terms, mod, rows, cols, chosen=None,
             solvable=None):
    """A random right-hand side, or one built from a solution (drawn here,
    or the unknowns already in ``chosen``): half the time each, unless
    ``solvable`` picks."""
    if solvable is None:
        solvable = not draw(st.booleans())
    if not solvable:
        return draw_matrix(draw, ring, rows, cols)
    chosen = {} if chosen is None else chosen
    rhs = Matrix.zero(ring, rows, cols)
    for coeff, L, name, R in terms:
        if name not in chosen:
            chosen[name] = draw_matrix(draw, ring, L.cols, R.rows)
        rhs = rhs + (L @ chosen[name] @ R).scale(coeff)
    if mod is not None:
        rhs = rhs + mod @ draw_matrix(draw, ring, mod.cols, cols)
    return rhs


def free(ring, n):
    return PresentedModule.free(ring, n)


def column_decoupled(draw, ring, unknowns=1):
    """Case (a): every R is the identity, every width is q; with several
    unknowns the system fits none of the routes."""
    q = draw(st.integers(0, 3))
    variables = [MapVariable(f"x{i}", free(ring, q),
                             free(ring, draw(st.integers(0, 3))))
                 for i in range(unknowns)]
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        p = draw(st.integers(0, 3))
        terms = [(draw(st.sampled_from([1, -1, 2])),
                  draw_matrix(draw, ring, p, v.rows), v.name,
                  Matrix.identity(ring, q)) for v in variables]
        mod = (draw_matrix(draw, ring, p, draw(st.integers(1, 2)))
               if draw(st.booleans()) else None)
        relations.append(MatrixRelation(
            terms, draw_rhs(draw, ring, terms, mod, p, q), mod))
    return variables, relations


def row_decoupled(draw, ring):
    """Case (b): one unknown, every L the identity, one nonzero modulus Q."""
    p, n = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    variables = [MapVariable("r", free(ring, n), free(ring, p))]
    Q = draw_matrix(draw, ring, p, draw(st.integers(1, 2)))
    if Q.is_zero():
        Q = Matrix(ring, p, Q.cols, [[2] + [0] * (Q.cols - 1)]
                   + [[0] * Q.cols] * (p - 1))
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        q = draw(st.integers(0, 3))
        terms = [(draw(st.sampled_from([1, -1, 3])), Matrix.identity(ring, p),
                  "r", draw_matrix(draw, ring, n, q))
                 for _ in range(draw(st.integers(1, 2)))]
        relations.append(MatrixRelation(
            terms, draw_rhs(draw, ring, terms, Q, p, q), Q))
    return variables, relations


def source_columns(draw, ring):
    """Case (c): one unknown C -> B, where C has relations R_C; relations
    with every R the identity, and well-definedness (I, X, R_C) = 0 modulo
    the relations of B or exactly."""
    n, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    R_C = draw_matrix(draw, ring, n, draw(st.integers(1, 2)))
    x = draw_matrix(draw, ring, b, n)
    R_B = None
    if draw(st.booleans()):
        R_B = draw_matrix(draw, ring, b, draw(st.integers(1, 2)))
        if draw(st.booleans()):
            R_B = R_B.hstack(x @ R_C)  # x is then well defined
    var = MapVariable("x", PresentedModule(ring, n, R_C),
                      PresentedModule(ring, b, R_B))
    relations = [MatrixRelation(
        [(draw(st.sampled_from([1, -1, 2])), Matrix.identity(ring, b), "x",
          R_C)], Matrix.zero(ring, b, R_C.cols), R_B)]
    for _ in range(draw(st.integers(1, 2))):
        p = draw(st.integers(1, 3))
        terms = [(draw(st.sampled_from([1, -1, 3])),
                  draw_matrix(draw, ring, p, b), "x", Matrix.identity(ring, n))
                 for _ in range(draw(st.integers(1, 2)))]
        mod = draw(st.sampled_from(
            [None, draw_matrix(draw, ring, p, draw(st.integers(1, 2)))]
            + ([R_C] if p == n else [])))
        relations.append(MatrixRelation(
            terms, draw_rhs(draw, ring, terms, mod, p, n, {"x": x}), mod))
    return [var], relations


def coupled(draw, ring):
    """Two unknowns, one of them multiplied on both sides."""
    p, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    variables = [MapVariable(name, free(ring, n), free(ring, p))
                 for name in ("x", "y")]
    terms = [(1, draw_matrix(draw, ring, p, p), "x",
              draw_matrix(draw, ring, n, n)),
             (1, draw_matrix(draw, ring, p, p), "y", Matrix.identity(ring, n))]
    mod = draw_matrix(draw, ring, p, 1) if draw(st.booleans()) else None
    return variables, [MatrixRelation(terms,
                                      draw_rhs(draw, ring, terms, mod, p, n),
                                      mod)]


def satisfies(ring, relations, sol) -> bool:
    for rel in relations:
        residual = -rel.rhs
        for coeff, L, name, R in rel.terms:
            residual = residual + (L @ sol[name] @ R).scale(coeff)
        if rel.mod is None:
            if not residual.is_zero():
                return False
            continue
        slack = solve(rel.mod, residual)
        if slack is None or rel.mod @ slack != residual:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS),
       st.sampled_from([column_decoupled, row_decoupled, source_columns]),
       st.data())
def test_routes_agree_with_flattened_system(ring, shape, data):
    variables, relations = shape(data.draw, ring)
    sol = solve_map_relations(ring, variables, relations)
    flat = equations._solve_flattened(ring, variables, relations)
    assert (sol is None) == (flat is None)
    if sol is not None:
        assert sorted(sol) == sorted(v.name for v in variables)
        for v in variables:
            assert (sol[v.name].rows, sol[v.name].cols) == (v.rows, v.cols)
        assert satisfies(ring, relations, sol)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RINGS),
       st.sampled_from([partial(column_decoupled, unknowns=2), coupled]),
       st.data())
def test_systems_in_two_unknowns_go_to_the_oracle_only(ring, shape, data):
    """solve_map_relations refuses two unknowns; the flattened oracle
    solves them whole, and its solutions are checked by multiplication."""
    variables, relations = shape(data.draw, ring)
    with pytest.raises(ValueError):
        solve_map_relations(ring, variables, relations)
    flat = equations._solve_flattened(ring, variables, relations)
    if flat is not None:
        assert satisfies(ring, relations, flat)


def test_one_unknown_outside_the_routes_is_refused():
    """2 h = 2 beside h 2 = 2, a lift's relations in one degree when the
    left leg is nonzero, fit none of (a), (b) and (c)."""
    var = MapVariable("h", free(ZZ, 1), free(ZZ, 1))
    one, two = Matrix.identity(ZZ, 1), Matrix(ZZ, 1, 1, [[2]])
    relations = [MatrixRelation([(1, two, "h", one)], two),
                 MatrixRelation([(1, one, "h", two)], two)]
    with pytest.raises(ValueError):
        solve_map_relations(ZZ, [var], relations)
    assert equations._solve_flattened(ZZ, [var], relations)["h"] == one


def _refuse_flattening(*args):
    raise RuntimeError("decoupled system sent to the flattened solver")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS),
       st.sampled_from([column_decoupled, source_columns]),
       st.data())
def test_one_unknown_column_systems_skip_flattening(ring, shape, data):
    """One unknown whose relations are all column-type is case (c) without
    P; with source relations P it is case (c) itself."""
    variables, relations = shape(data.draw, ring)
    with mock.patch.object(equations, "_solve_flattened", _refuse_flattening):
        sol = solve_map_relations(ring, variables, relations)
    flat = equations._solve_flattened(ring, variables, relations)
    assert (sol is None) == (flat is None)
    if sol is not None:
        assert satisfies(ring, relations, sol)


def test_retractions_and_factorizations_skip_flattening(monkeypatch):
    monkeypatch.setattr(equations, "_solve_flattened", _refuse_flattening)
    for ring in RINGS:
        # Z -> Z + Z/2 splits; 2 : Z -> Z does not
        B = free(ring, 1)
        C = PresentedModule(ring, 2, Matrix(ring, 2, 1, [[0], [2]]))
        assert is_split_mono(ModuleMap(B, C, Matrix(ring, 2, 1, [[1], [1]])))
        assert is_split_mono(ModuleMap(B, B, Matrix(ring, 1, 1, [[2]]))) \
            is None
        incl = ModuleMap(B, free(ring, 2), Matrix(ring, 2, 1, [[2], [0]]))
        u = ModuleMap(B, free(ring, 2), Matrix(ring, 2, 1, [[4], [0]]))
        w = factor_through(incl, u)
        assert w is not None and incl.compose(w).action == u.action

    for ring in RINGS:
        # R -> R/2 splits over Z/6 (R/2 is the summand 3R) but not over Z
        B, C = free(ring, 1), PresentedModule.cyclic(ring, 2)
        section = is_split_epi(ModuleMap(B, C, Matrix.identity(ring, 1)))
        assert (section is not None) == ring.is_modular
        assert is_projective(C) == ring.is_modular
        assert (projective_section(C) is not None) == ring.is_modular
        # R + R/2 -> R/2 splits over both
        B = PresentedModule(ring, 2, Matrix(ring, 2, 1, [[0], [2]]))
        assert is_split_epi(ModuleMap(B, C, Matrix(ring, 1, 2, [[0, 1]])))


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("ring", ["z", "z/6"])
def test_suite_never_flattens(monkeypatch, tmp_path, suite, ring):
    reached = []

    def flattened(*args):
        reached.append(args)
        raise RuntimeError("decoupled system sent to the flattened solver")

    monkeypatch.setattr(equations, "_solve_flattened", flattened)
    out = tmp_path / "report.json"
    assert main(["certify", "--suite", suite, "--seed", "7", "--cases", "20",
                 "--ring", ring, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"]
    assert not reached


def bidiagonal(draw, ring):
    """Unknowns x_n : R^c -> R^b in degrees 0..top; each relation of degree
    n has a term in x_n and maybe one in x_{n-1}, both factors drawn.  Below
    a drawn degree every rhs comes from one drawn solution, from it on
    half of them are drawn freely, so the first failing degree varies."""
    top = draw(st.integers(0, 3))
    solvable_below = draw(st.integers(0, top + 1))
    chosen: dict = {}
    steps = []
    for n in range(top + 1):
        var = MapVariable(f"x{n}", free(ring, draw(st.integers(0, 2))),
                          free(ring, draw(st.integers(1, 2))))
        relations = []
        for _ in range(draw(st.integers(1, 2))):
            p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
            terms = [(draw(st.sampled_from([1, -1, 2])),
                      draw_matrix(draw, ring, p, var.rows), var.name,
                      draw_matrix(draw, ring, var.cols, q))]
            if n and draw(st.booleans()):
                prev = steps[-1][0]
                terms.append((1, draw_matrix(draw, ring, p, prev.rows),
                              prev.name,
                              draw_matrix(draw, ring, prev.cols, q)))
            mod = (draw_matrix(draw, ring, p, 1) if draw(st.booleans())
                   else None)
            relations.append(MatrixRelation(terms, draw_rhs(
                draw, ring, terms, mod, p, q, chosen,
                solvable=True if n < solvable_below else None), mod))
        steps.append((var, relations))
    return steps


# (c1, c2, a, b) with c2 a = b c1: the square (c1, c2, a s, b s) commutes
SCALINGS = [(c1, c2, a, b) for c1, c2, a, b in product(range(1, 4), repeat=4)
            if c2 * a == b * c1]


def _scaled(f, c):
    return ChainMap(f.source, f.target, [
        ModuleMap(part.source, part.target, part.action.scale(c))
        for part in f.parts])


def lift_square(draw, ring):
    """The lift system of a drawn square: a section or a retraction of a
    random chain map, an extension along one, or c1 and c2 times the
    identity as legs, with a s on top and b s below."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    X, Y = (random_complex(ring, rng, max_top=2, max_rank=2)
            for _ in range(2))
    zero = zero_complex(ring)
    kind = draw(st.sampled_from(["section", "retraction", "extension",
                                 "scaled"]))
    if kind == "section":
        problem = LiftingProblem(ChainMap.zero(zero, Y),
                                 random_chain_map(X, Y, rng),
                                 ChainMap.zero(zero, X), ChainMap.identity(Y))
    elif kind == "retraction":
        problem = LiftingProblem(random_chain_map(X, Y, rng),
                                 ChainMap.zero(X, zero), ChainMap.identity(X),
                                 ChainMap.zero(Y, zero))
    elif kind == "extension":
        A = random_complex(ring, rng, max_top=2, max_rank=2)
        problem = LiftingProblem(random_chain_map(A, X, rng),
                                 ChainMap.zero(Y, zero),
                                 random_chain_map(A, Y, rng),
                                 ChainMap.zero(X, zero))
    else:
        c1, c2, a, b = draw(st.sampled_from(SCALINGS))
        s = random_chain_map(X, Y, rng)
        problem = LiftingProblem(_scaled(ChainMap.identity(X), c1),
                                 _scaled(ChainMap.identity(Y), c2),
                                 _scaled(s, a), _scaled(s, b))
    return lift_steps(problem)


def prefix_degree(ring, steps):
    """The first k whose degrees <= k, solved whole, have no solution."""
    for k in range(len(steps)):
        variables = [var for var, _ in steps[:k + 1]]
        relations = [rel for _, rels in steps[:k + 1] for rel in rels]
        if equations._solve_flattened(ring, variables, relations) is None:
            return k
    return None


@pytest.mark.parametrize("shape", [bidiagonal, lift_square],
                         ids=["bidiagonal", "lift_square"])
@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ZZ, Zmod(4), Zmod(6)]), st.data())
def test_degree_sweep_agrees_with_whole_and_prefix_systems(shape, ring,
                                                           data):
    steps = shape(data.draw, ring)
    with mock.patch.object(equations, "_solve_flattened", _refuse_flattening):
        parts, degree = solve_by_degree(ring, steps)
    variables = [var for var, _ in steps]
    relations = [rel for _, rels in steps for rel in rels]
    whole = equations._solve_flattened(ring, variables, relations)
    assert (parts is None) == (whole is None) == (degree is not None)
    assert degree == prefix_degree(ring, steps)
    if parts is not None:
        assert [(x.rows, x.cols) for x in parts] == \
            [(v.rows, v.cols) for v in variables]
        assert satisfies(ring, relations,
                         {v.name: x for v, x in zip(variables, parts)})
