"""Routes of solve_map_relations: the decoupled shapes against the flattened
system, and every solution re-checked by multiplication."""

import json
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chaincert.cli import main
from chaincert.exact import equations
from chaincert.exact.equations import (MapVariable, MatrixRelation,
                                       solve_map_relations)
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import ModuleMap, PresentedModule, factor_through
from chaincert.exact.rings import ZZ, Zmod
from chaincert.exact.snf import solve
from chaincert.exact.splitting import (is_projective, is_split_epi,
                                      is_split_mono, projective_section)

RINGS = [ZZ, Zmod(6)]


def draw_matrix(draw, ring, rows, cols):
    entries = st.lists(st.lists(st.integers(-3, 3), min_size=cols,
                                max_size=cols), min_size=rows, max_size=rows)
    return Matrix(ring, rows, cols, draw(entries))


def draw_rhs(draw, ring, terms, mod, rows, cols, chosen=None):
    """A random right-hand side, or half the time one built from a solution
    (drawn here, or the unknowns already in ``chosen``)."""
    if draw(st.booleans()):
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


def column_decoupled(draw, ring, max_unknowns=2):
    """Case (a): every R is the identity, every width is q; with several
    unknowns the system takes the coupled route."""
    q = draw(st.integers(0, 3))
    variables = [MapVariable(f"x{i}", free(ring, q),
                             free(ring, draw(st.integers(0, 3))))
                 for i in range(draw(st.integers(1, max_unknowns)))]
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
       st.sampled_from([column_decoupled, row_decoupled, source_columns,
                        coupled]),
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


def _refuse_flattening(*args):
    raise RuntimeError("decoupled system sent to the flattened solver")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RINGS),
       st.sampled_from([partial(column_decoupled, max_unknowns=1),
                        source_columns]),
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


@pytest.mark.parametrize("suite", ["monoidal-smod", "ez-aw", "ez-aw-dual"])
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
