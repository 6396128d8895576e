"""The memo behind `is_split_mono` and `is_split_epi`.

Each split question is answered once per process: a question whose
content (source, target and action of f) was asked before is answered
from `splitting._answer` with a map between the caller's own modules,
and a remembered "no" stays "no".  The benchmark empties the memo before
every round with its scan for ``cache_clear``.
"""

import importlib.util
import os

import pytest

from chaincert.certify import CertifyConfig, run_suite
from chaincert.errors import CertificateError
from chaincert.exact import splitting
from chaincert.exact.matrix import Matrix
from chaincert.exact.modules import ModuleMap, PresentedModule, map_equal
from chaincert.exact.rings import ZZ, Zmod
from chaincert.exact.splitting import is_split_epi, is_split_mono
from chaincert.io.reports import dump

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
RINGS = [ZZ, Zmod(6)]


def _fresh(ring, source, target, action):
    """The map R^source -> R^target with this action, built from new module
    and matrix objects on every call."""
    return ModuleMap(PresentedModule.free(ring, source),
                     PresentedModule.free(ring, target),
                     Matrix(ring, target, source, action))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_a_content_equal_map_is_answered_on_its_own_modules(ring):
    for question, search in (((1, 2, [[1], [0]]), is_split_mono),
                             ((2, 1, [[1, 0]]), is_split_epi)):
        assert search(_fresh(ring, *question)) is not None
        hits = splitting._answer.cache_info().hits
        f = _fresh(ring, *question)
        g = search(f)
        assert splitting._answer.cache_info().hits == hits + 1
        assert g.source is f.target and g.target is f.source
        if search is is_split_mono:
            assert map_equal(g.compose(f), ModuleMap.identity(f.source))
        else:
            assert map_equal(f.compose(g), ModuleMap.identity(f.target))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_a_remembered_no_stays_no(ring):
    # R --2--> R neither splits nor is split: 2 is no unit in Z or Z/6
    for search in (is_split_mono, is_split_epi):
        assert search(_fresh(ring, 1, 1, [[2]])) is None
        hits = splitting._answer.cache_info().hits
        assert search(_fresh(ring, 1, 1, [[2]])) is None
        assert splitting._answer.cache_info().hits == hits + 1


def test_a_refused_answer_is_not_remembered(monkeypatch):
    # a solver that answers zero gives r = 0 for id_R, which the check
    # refuses; the refusal is raised again on the next call, never stored
    def zero_solution(ring, variables, relations):
        return {v.name: Matrix.zero(ring, v.target.generators,
                                    v.source.generators) for v in variables}

    monkeypatch.setattr(splitting, "solve_map_relations", zero_solution)
    for search in (is_split_mono, is_split_epi):
        for _ in range(2):
            with pytest.raises(CertificateError):
                search(_fresh(ZZ, 1, 1, [[1]]))
    assert splitting._answer.cache_info().currsize == 0


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("suite", ["monoidal-h", "hlp-hep", "yoneda"])
def test_certify_bytes_are_those_of_a_cold_memo(suite, ring):
    config = CertifyConfig(suite, seed=7, cases=10, ring=ring)
    splitting._answer.cache_clear()
    cold = dump(run_suite(config))
    asked = splitting._answer.cache_info()
    assert asked.currsize > 0
    warm = dump(run_suite(config))
    assert splitting._answer.cache_info().hits > asked.hits
    assert warm == cold


def test_the_benchmark_scan_empties_the_memo(monkeypatch):
    assert splitting._answer.cache_info().maxsize == 1024
    is_split_mono(_fresh(ZZ, 1, 1, [[2]]))
    assert splitting._answer.cache_info().currsize == 1
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.clear_caches()
    assert splitting._answer.cache_info().currsize == 0
