"""The JSON wire format of chain data, and the only module that knows it.

Fixture documents, reports and certify cases store modules, complexes,
maps and homotopies in one format, and every reader and writer of it
lives here:

* a matrix is a list of integer rows (row major);
* a module is ``{"generators": g, "relations": <g x r matrix>}``;
* a complex is ``{"degrees": [module, ...], "differentials": [...]}``,
  tagged ``"type": "chain_complex"`` or ``"cochain_complex"`` where it
  stands on its own;
* a cochain complex lists X^0 .. X^t and d^k : X^k -> X^{k+1}, and a
  cochain map its components g^0 .. g^T in cochain order;
* a map or a homotopy is the list of its degreewise components, stored
  under ``"components"``, beside ``"source"`` and ``"target"`` when the
  reader does not hold the endpoints already.

Components are always decoded against endpoints the caller already
holds (component n of a homotopy raises the degree by one).  Missing
trailing degrees mean zero; more components than the endpoints have
degrees is an error.  Decoding validates everything it touches and
raises DocumentError with the JSON path of the offending entry, so a bad
document or report names its own degree.  Within a document, names are
the only cross-reference mechanism.

This module is also where cochain data turns into chain data (see
`chains/cochain.py`): a cochain complex of top t is decoded as the chain
complex C_n = X^{t-n}; a cochain map reverses both of its ends at the
larger top T, so an end of top t < T sits in chain degrees T-t .. T; the
writers reverse back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..chains.cochain import CochainMap
from ..chains.complexes import ChainComplex, ChainMap
from ..chains.truncate import WindowComplex
from ..errors import CertificateError
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, PresentedModule, map_equal
from ..exact.rings import RingSpec
from ..simplicial.module import SimplicialModule, cap_problem, gamma

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


def get_field(data: Any, key: str, location: str = "") -> Any:
    """``data[key]``; ``location`` is the JSON path of ``data``."""
    if not isinstance(data, dict):
        raise DocumentError(location or "$", "expected a JSON object")
    if key not in data:
        raise DocumentError(f"{location}.{key}" if location else key,
                            "required field is missing")
    return data[key]


def is_json_int(x: Any) -> bool:
    """True for a JSON integer; JSON ``true`` and ``false`` are not one,
    although Python's ``bool`` is a subclass of ``int``."""
    return isinstance(x, int) and not isinstance(x, bool)


_RING_FORMS = ('a ring is {"kind": "Z"} or {"kind": "Zmod", "modulus": m} '
               'with an integer m >= 2')


def parse_ring(data: Any) -> RingSpec:
    if not isinstance(data, dict):
        raise DocumentError("ring", f"invalid ring {data!r}; {_RING_FORMS}")
    if data.get("kind") == "Zmod" and "modulus" not in data:
        raise DocumentError("ring.modulus",
                            f"required field is missing; {_RING_FORMS}")
    if data.get("kind") == "Z" and "modulus" in data:
        raise DocumentError("ring.modulus",
                            f"the integers carry no modulus; {_RING_FORMS}")
    try:
        return RingSpec.from_json(data)
    except ValueError as exc:
        raise DocumentError("ring", f"invalid ring: {exc}; {_RING_FORMS}")


def parse_matrix(ring: RingSpec, data: Any, rows: int, cols: int,
                 location: str) -> Matrix:
    if not isinstance(data, list):
        raise DocumentError(location, "matrix must be a list of rows")
    if rows == 0 or cols == 0:
        if data and data != [[]] * rows:
            raise DocumentError(location, f"a {rows}x{cols} matrix has no "
                                          "entries")
        return Matrix.zero(ring, rows, cols)
    if len(data) != rows:
        raise DocumentError(location, f"expected {rows} rows, got {len(data)}")
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"{location}[{r}]", f"expected {cols} entries")
        for x in row:
            if not is_json_int(x):
                raise DocumentError(f"{location}[{r}]", "entries must be integers")
    return Matrix(ring, rows, cols, data)


def parse_module(ring: RingSpec, data: Any, location: str) -> PresentedModule:
    gens = get_field(data, "generators", location)
    if not is_json_int(gens) or gens < 0:
        raise DocumentError(location, "'generators' must be a natural number")
    rel_data = data.get("relations", [])
    if not isinstance(rel_data, list) or (rel_data
                                          and not isinstance(rel_data[0], list)):
        raise DocumentError(f"{location}.relations",
                            "relations must be a list of rows")
    cols = len(rel_data[0]) if rel_data and gens else 0
    rel = parse_matrix(ring, rel_data, gens if rel_data else 0, cols,
                       f"{location}.relations")
    if rel.rows != gens:
        rel = Matrix.zero(ring, gens, 0)
    return PresentedModule(ring, gens, rel)


def parse_module_map(data: Any, source: PresentedModule,
                     target: PresentedModule, location: str) -> ModuleMap:
    """A well-defined map ``source -> target`` on generators."""
    action = parse_matrix(source.ring, data, target.generators,
                          source.generators, location)
    try:
        return ModuleMap(source, target, action)
    except ValueError as exc:
        raise DocumentError(location, str(exc))


def parse_components(data: Any, source: ChainComplex, target: ChainComplex,
                     location: str, *, shift: int = 0, reverse: bool = False
                     ) -> list[ModuleMap]:
    """Degreewise components ``source_n -> target_{n + shift}``.

    ``source`` and ``target`` are complexes the caller already holds;
    ``shift`` is 0 for a map and 1 for a homotopy.  With ``reverse`` the
    list is in cochain order, entry k being chain degree top - k; the
    result is in chain order either way.
    """
    top = max(source.top, target.top)
    if not isinstance(data, list):
        raise DocumentError(location, "components must be a list of matrices")
    if len(data) > top + 1:
        raise DocumentError(location, f"expected at most {top + 1} "
                                      f"components, got {len(data)}")
    parts = []
    for k in range(top + 1):
        n = top - k if reverse else k
        src, tgt = source.module(n), target.module(n + shift)
        parts.append(parse_module_map(data[k], src, tgt, f"{location}[{k}]")
                     if k < len(data) else ModuleMap.zero_map(src, tgt))
    return parts[::-1] if reverse else parts


def _complex_data(ring: RingSpec, data: Any, location: str
                  ) -> tuple[list[PresentedModule], list]:
    degrees = get_field(data, "degrees", location)
    if not isinstance(degrees, list) or not degrees:
        raise DocumentError(location, "complex needs a non-empty 'degrees' list")
    mods = [parse_module(ring, d, f"{location}.degrees[{n}]")
            for n, d in enumerate(degrees)]
    raw_diffs = data.get("differentials", [])
    if not isinstance(raw_diffs, list) or len(raw_diffs) != len(mods) - 1:
        raise DocumentError(f"{location}.differentials",
                            f"expected {len(mods) - 1} matrices")
    return mods, raw_diffs


def parse_chain_complex(ring: RingSpec, data: Any, location: str
                        ) -> ChainComplex:
    mods, raw_diffs = _complex_data(ring, data, location)
    diffs = [parse_module_map(raw, mods[n], mods[n - 1],
                              f"{location}.differentials[{n - 1}]")
             for n, raw in enumerate(raw_diffs, start=1)]
    try:
        return ChainComplex(ring, mods, diffs)
    except ValueError as exc:
        raise DocumentError(location, str(exc))


def parse_cochain_complex(ring: RingSpec, data: Any, location: str
                          ) -> ChainComplex:
    """A cochain complex X^0 .. X^t, as the chain complex C_n = X^{t-n}."""
    mods, raw_diffs = _complex_data(ring, data, location)
    diffs = [parse_module_map(raw, mods[k], mods[k + 1],
                              f"{location}.differentials[{k}]")
             for k, raw in enumerate(raw_diffs)]
    for k in range(len(diffs) - 1):
        if not diffs[k + 1].compose(diffs[k]).is_zero():
            raise DocumentError(location, f"d o d nonzero out of degree {k}")
    return ChainComplex(ring, mods[::-1], diffs[::-1], check=False)


def _raise_top(C: ChainComplex, top: int) -> ChainComplex:
    """A reversed cochain complex re-reversed at ``top``: C moved up to
    chain degrees top - C.top .. top, with zero modules below."""
    zero = PresentedModule.zero(C.ring)
    mods = [zero] * (top - C.top) + list(C.mods)
    diffs = [ModuleMap.zero_map(mods[n], mods[n - 1])
             for n in range(1, top - C.top + 1)]
    return ChainComplex(C.ring, mods, diffs + list(C.diffs), check=False)


def parse_window_complex(ring: RingSpec, data: dict, location: str
                         ) -> WindowComplex:
    mods, raw_diffs = _complex_data(ring, data, location)
    minus_one = parse_module(ring, data.get("minus_one", {"generators": 0}),
                             f"{location}.minus_one")
    d0_raw = data.get("d0", [])
    d0 = parse_matrix(ring, d0_raw, minus_one.generators, mods[0].generators,
                      f"{location}.d0")
    modules = {-1: minus_one}
    modules.update({n: m for n, m in enumerate(mods)})
    diffs = {0: ModuleMap(mods[0], minus_one, d0, check=False)}
    for n, raw in enumerate(raw_diffs, start=1):
        action = parse_matrix(ring, raw, mods[n - 1].generators,
                              mods[n].generators,
                              f"{location}.differentials[{n - 1}]")
        diffs[n] = ModuleMap(mods[n], mods[n - 1], action, check=False)
    try:
        return WindowComplex(ring, modules, diffs)
    except ValueError as exc:
        raise DocumentError(location, str(exc))


def parse_simplicial(ring: RingSpec, data: dict, location: str
                     ) -> SimplicialModule:
    normalized = parse_chain_complex(ring, data.get("normalized", {}),
                                     f"{location}.normalized")
    cap = data.get("cap", normalized.top + 1)
    if not is_json_int(cap):
        raise DocumentError(f"{location}.cap",
                            "cap must be an integer >= the top degree")
    problem = cap_problem(normalized, cap)
    if problem:
        raise DocumentError(f"{location}.cap", problem)
    try:
        return gamma(normalized, cap=cap)
    except CertificateError as exc:
        raise DocumentError(location, str(exc))


def _build_map(src: ChainComplex, tgt: ChainComplex, data: Any,
               location: str) -> ChainMap:
    comps = parse_components(get_field(data, "components", location),
                             src, tgt, f"{location}.components")
    try:
        return ChainMap(src, tgt, comps)
    except ValueError as exc:
        raise DocumentError(location, str(exc))


def _build_cochain_map(src: ChainComplex, tgt: ChainComplex, data: Any,
                       location: str) -> CochainMap:
    """A cochain map between reversed cochain complexes (of any tops)."""
    top = max(src.top, tgt.top)
    src, tgt = _raise_top(src, top), _raise_top(tgt, top)
    comps = parse_components(get_field(data, "components", location),
                             src, tgt, f"{location}.components", reverse=True)
    g = CochainMap(ChainMap(src, tgt, comps, check=False))
    for k in range(top):  # g^{k+1} d^k = d^k g^k, with d^k = d_{top-k}
        n = top - k
        if not map_equal(g.component(k + 1).compose(src.differential(n)),
                         tgt.differential(n).compose(g.component(k))):
            raise DocumentError(location,
                                f"cochain square at degree {k} fails")
    return g


def _map_from_json(ring: RingSpec, data: Any, location: str,
                   parse_complex: Callable, build: Callable):
    src = parse_complex(ring, get_field(data, "source", location),
                        f"{location}.source")
    tgt = parse_complex(ring, get_field(data, "target", location),
                        f"{location}.target")
    return build(src, tgt, data, location)


def chain_map_from_json(ring: RingSpec, data: Any, location: str = "map"
                        ) -> ChainMap:
    """A chain map stored with its endpoints (see chain_map_to_json)."""
    return _map_from_json(ring, data, location, parse_chain_complex,
                          _build_map)


def chain_maps_from_json(ring: RingSpec, data: Any, names: Sequence[str]
                         ) -> dict[str, ChainMap]:
    """The chain maps stored under ``names`` in ``data``, with endpoints; an
    endpoint that several maps store identically is decoded once."""
    decoded: list[tuple[Any, ChainComplex]] = []

    def endpoint(stored: Any, end: str, name: str) -> ChainComplex:
        raw = get_field(stored, end, name)
        for seen, C in decoded:
            if seen == raw:
                return C
        C = parse_chain_complex(ring, raw, f"{name}.{end}")
        decoded.append((raw, C))
        return C

    maps = {}
    for name in names:
        stored = get_field(data, name)
        maps[name] = _build_map(endpoint(stored, "source", name),
                                endpoint(stored, "target", name), stored, name)
    return maps


def cochain_map_from_json(ring: RingSpec, data: Any) -> CochainMap:
    """A cochain map stored with its endpoints (see chain_map_to_json)."""
    return _map_from_json(ring, data, "map", parse_cochain_complex,
                          _build_cochain_map)


@dataclass
class MapEntry:
    name: str
    source_name: str
    target_name: str
    value: Any  # ChainMap | CochainMap | SimplicialMap-normalized ChainMap
    kind: str   # "chain" | "cochain" | "simplicial"


@dataclass
class Document:
    ring: RingSpec
    objects: dict[str, Any] = field(default_factory=dict)
    object_kinds: dict[str, str] = field(default_factory=dict)
    maps: dict[str, MapEntry] = field(default_factory=dict)

    def chain_complex(self, name: str) -> ChainComplex:
        obj = self._get(name)
        kind = self.object_kinds[name]
        if kind == "simplicial_module":
            return obj.normalized
        if kind != "chain_complex":
            raise DocumentError(f"objects.{name}", "not a chain complex")
        return obj

    def simplicial(self, name: str) -> SimplicialModule:
        obj = self._get(name)
        kind = self.object_kinds[name]
        if kind == "simplicial_module":
            return obj
        if kind == "chain_complex":
            return gamma(obj, verify=False)
        raise DocumentError(f"objects.{name}", "not a simplicial module")

    def _get(self, name: str):
        if name not in self.objects:
            raise DocumentError(f"objects.{name}", "no such object")
        return self.objects[name]

    def map(self, name: str) -> MapEntry:
        if name not in self.maps:
            raise DocumentError(f"maps.{name}", "no such map")
        return self.maps[name]


_OBJECT_PARSERS = {
    "chain_complex": parse_chain_complex,
    "cochain_complex": parse_cochain_complex,
    "window_complex": parse_window_complex,
    "simplicial_module": parse_simplicial,
}


def parse_document(data: dict) -> Document:
    if not isinstance(data, dict):
        raise DocumentError("$", "document must be a JSON object")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise DocumentError("version", f"unsupported version {version!r}")
    doc = Document(parse_ring(data.get("ring")))
    objects, maps = data.get("objects", {}), data.get("maps", {})
    for key, value in (("objects", objects), ("maps", maps)):
        if not isinstance(value, dict):
            raise DocumentError(key, "expected a JSON object")
    for name, odata in sorted(objects.items()):
        loc = f"objects.{name}"
        if not isinstance(odata, dict) or "type" not in odata:
            raise DocumentError(loc, "object needs a 'type' field")
        if not isinstance(odata["type"], str):
            raise DocumentError(f"{loc}.type", "expected a string")
        parser = _OBJECT_PARSERS.get(odata["type"])
        if parser is None:
            raise DocumentError(loc, f"unknown object type {odata['type']!r}")
        doc.objects[name] = parser(doc.ring, odata, loc)
        doc.object_kinds[name] = odata["type"]
    for name, mdata in sorted(maps.items()):
        loc = f"maps.{name}"
        doc.maps[name] = _parse_map(doc, name, mdata, loc)
    return doc


def _parse_map(doc: Document, name: str, data: Any, location: str) -> MapEntry:
    src_name = get_field(data, "source", location)
    tgt_name = get_field(data, "target", location)
    for key, ref in (("source", src_name), ("target", tgt_name)):
        if not isinstance(ref, str):
            raise DocumentError(f"{location}.{key}",
                                "expected the name of an object")
        if ref not in doc.objects:
            raise DocumentError(location, f"dangling reference {ref!r}")
    src_kind = doc.object_kinds[src_name]
    if src_kind != doc.object_kinds[tgt_name]:
        raise DocumentError(location, "maps must relate objects of one kind")
    src, tgt = doc.objects[src_name], doc.objects[tgt_name]
    if src_kind == "simplicial_module":
        src, tgt = src.normalized, tgt.normalized
    kind = {"cochain_complex": "cochain",
            "simplicial_module": "simplicial"}.get(src_kind, "chain")
    build = _build_cochain_map if kind == "cochain" else _build_map
    value = build(src, tgt, data, location)
    return MapEntry(name, src_name, tgt_name, value, kind)


# -- serialization ------------------------------------------------------


def graded_to_json(C: ChainComplex, *, cochain: bool = False) -> dict:
    """The degrees and differentials of a complex, without a type tag;
    with ``cochain``, those of the cochain complex X^k = C_{top-k}."""
    step = -1 if cochain else 1
    return {"degrees": [m.to_json() for m in C.mods[::step]],
            "differentials": [d.action.to_json() for d in C.diffs[::step]]}


def complex_to_json(C: ChainComplex, *, cochain: bool = False) -> dict:
    kind = "cochain_complex" if cochain else "chain_complex"
    return {"type": kind, **graded_to_json(C, cochain=cochain)}


def simplicial_to_json(A: SimplicialModule) -> dict:
    return {"type": "simplicial_module",
            "normalized": graded_to_json(A.normalized), "cap": A.cap}


def components_to_json(parts: Sequence[ModuleMap]) -> list:
    """The degreewise components of a map or a homotopy (its ``parts``)."""
    return [p.action.to_json() for p in parts]


def map_to_json(f) -> dict:
    """A map or a homotopy whose endpoints the reader already holds."""
    return {"components": components_to_json(f.parts)}


def chain_map_to_json(f: ChainMap | CochainMap) -> dict:
    """A chain or cochain map together with its endpoints."""
    cochain = isinstance(f, CochainMap)
    chain = f.chain if cochain else f
    return {"source": complex_to_json(chain.source, cochain=cochain),
            "target": complex_to_json(chain.target, cochain=cochain),
            "components": components_to_json(f.parts)}
