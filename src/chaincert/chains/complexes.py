"""Bounded non-negatively graded chain complexes of presented modules.

Trusted by construction, checked at the boundary.  ``ChainComplex``,
``ChainMap``, ``ChainHomotopy``, ``Retractions`` (here), ``WindowComplex``
(``truncate.py``) and ``ModuleMap`` (``exact/modules.py``) check their
defining identity at construction: d o d = 0, the commuting squares, the
homotopy relation, r_n o f_n = id, relations carried into relations.
``check=False`` skips it.  Only an internal construction passes it, for
a result whose identity follows from how it is built (block-diagonal
sums, conjugation by a change of basis, the cone and cylinder formulas,
the decoding of a chain-maps module) or that its caller has just
checked, and a comment or docstring beside it says why.  A construction
whose identity needs a condition on its inputs checks it or keeps it.
Two kinds of data are always checked: data from outside (``io/document.py``
and the public default of every constructor) and witnesses, the answers
the solver finds (homotopies, inverses, lifts, and the maps ``verify``
reads back).  ``tests/test_trust_boundary.py`` forces every constructor
to check and reruns the suites and the fixtures, so a false claim fails
there.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..errors import CertificateError
from ..exact.modules import ModuleMap, PresentedModule, map_equal
from ..exact.rings import RingSpec


class ChainComplex:
    """Modules C_0 .. C_top with differentials d_n : C_n -> C_{n-1}.

    Degrees outside [0, top] are implicitly zero.  d o d = 0 is checked at
    construction unless ``check=False``.
    """

    __slots__ = ("ring", "top", "mods", "diffs")

    def __init__(self, ring: RingSpec, modules: Sequence[PresentedModule],
                 differentials: Sequence[ModuleMap], *, check: bool = True):
        if not modules:
            modules = [PresentedModule.zero(ring)]
        if len(differentials) != len(modules) - 1:
            raise ValueError("need one differential per positive degree")
        self.ring = ring
        self.mods = tuple(modules)
        self.diffs = tuple(differentials)
        self.top = len(modules) - 1
        if check:
            self.validate(strict=True)

    def validate(self, *, strict: bool = False) -> bool:
        """d_n o d_{n+1} = 0 for all n, and endpoints line up."""
        for n in range(1, self.top + 1):
            d = self.diffs[n - 1]
            if d.source != self.mods[n] or d.target != self.mods[n - 1]:
                if strict:
                    raise ValueError(f"differential at degree {n} has wrong endpoints")
                return False
        for n in range(2, self.top + 1):
            composite = self.diffs[n - 2].compose(self.diffs[n - 1])
            if not composite.is_zero():
                if strict:
                    raise ValueError(f"d o d is nonzero entering degree {n - 2}")
                return False
        return True

    def module(self, n: int) -> PresentedModule:
        if 0 <= n <= self.top:
            return self.mods[n]
        return PresentedModule.zero(self.ring)

    def differential(self, n: int) -> ModuleMap:
        if 1 <= n <= self.top:
            return self.diffs[n - 1]
        return ModuleMap.zero_map(self.module(n), self.module(n - 1))

    def total_generators(self) -> int:
        return sum(m.generators for m in self.mods)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ChainComplex) and self.ring == other.ring
                and self.mods == other.mods
                and tuple(d.action for d in self.diffs)
                == tuple(d.action for d in other.diffs))

    def __hash__(self) -> int:
        return hash((self.ring, self.mods, tuple(d.action for d in self.diffs)))

    def __repr__(self) -> str:
        ranks = [m.generators for m in self.mods]
        return f"ChainComplex({self.ring}, gens by degree {ranks})"


class ChainMap:
    """Degreewise map commuting with the differentials."""

    __slots__ = ("source", "target", "parts")

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: Sequence[ModuleMap], *, check: bool = True):
        self.source = source
        self.target = target
        top = max(source.top, target.top)
        parts = list(components)
        while len(parts) < top + 1:
            n = len(parts)
            parts.append(ModuleMap.zero_map(source.module(n), target.module(n)))
        self.parts = tuple(parts[: top + 1])
        if check:
            self.validate(strict=True)

    def validate(self, *, strict: bool = False) -> bool:
        top = max(self.source.top, self.target.top)
        for n, f in enumerate(self.parts):
            if f.source != self.source.module(n) or f.target != self.target.module(n):
                if strict:
                    raise ValueError(f"component {n} has wrong endpoints")
                return False
        for n in range(1, top + 1):
            lhs = self.component(n - 1).compose(self.source.differential(n))
            rhs = self.target.differential(n).compose(self.component(n))
            if not map_equal(lhs, rhs):
                if strict:
                    raise ValueError(f"square at degree {n} does not commute")
                return False
        return True

    def component(self, n: int) -> ModuleMap:
        if 0 <= n < len(self.parts):
            return self.parts[n]
        return ModuleMap.zero_map(self.source.module(n), self.target.module(n))

    @staticmethod
    def identity(C: ChainComplex) -> "ChainMap":
        return ChainMap(C, C, [ModuleMap.identity(C.module(n))
                               for n in range(C.top + 1)], check=False)

    @staticmethod
    def zero(source: ChainComplex, target: ChainComplex) -> "ChainMap":
        return ChainMap(source, target, [], check=False)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other."""
        if other.target != self.source:
            raise ValueError("chain map composition endpoint mismatch")
        top = max(other.source.top, self.target.top, other.target.top)
        comps = [self.component(n).compose(other.component(n))
                 for n in range(top + 1)]
        return ChainMap(other.source, self.target, comps, check=False)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        comps = [self.component(n) + other.component(n)
                 for n in range(len(self.parts))]
        return ChainMap(self.source, self.target, comps, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        comps = [self.component(n) - other.component(n)
                 for n in range(len(self.parts))]
        return ChainMap(self.source, self.target, comps, check=False)

    def __neg__(self) -> "ChainMap":
        return ChainMap(self.source, self.target, [-p for p in self.parts],
                        check=False)

    def __repr__(self) -> str:
        return f"ChainMap({[p.action.to_lists() for p in self.parts]})"


def chain_map_equal(f: ChainMap, g: ChainMap) -> bool:
    if f.source != g.source or f.target != g.target:
        return False
    top = max(f.source.top, f.target.top)
    return all(map_equal(f.component(n), g.component(n)) for n in range(top + 1))


class Retractions:
    """Graded retractions r_n of f, a chain or cochain map: r_n o f_n = id
    modulo the relations in each degree n of ``parts``, checked by
    multiplication (CertificateError) unless ``check=False``.  The r_n
    need not commute with the differentials."""

    __slots__ = ("map", "parts")

    def __init__(self, f, parts: Mapping[int, ModuleMap], *,
                 check: bool = True):
        self.map = f
        self.parts = dict(parts)
        if check:
            for n, r in self.parts.items():
                fn = f.component(n)
                if not map_equal(r.compose(fn), ModuleMap.identity(fn.source)):
                    raise CertificateError(
                        f"r_{n} o f_{n} is not the identity")


class ChainHomotopy:
    """H_n : X_n -> Y_{n+1} with to - from = d H + H d (H_{-1} = 0)."""

    __slots__ = ("from_map", "to_map", "parts")

    def __init__(self, from_map: ChainMap, to_map: ChainMap,
                 components: Sequence[ModuleMap], *, check: bool = True):
        if (from_map.source != to_map.source
                or from_map.target != to_map.target):
            raise ValueError("homotopy endpoints mismatch")
        self.from_map = from_map
        self.to_map = to_map
        X, Y = from_map.source, from_map.target
        top = max(X.top, Y.top)
        parts = list(components)
        while len(parts) < top + 1:
            n = len(parts)
            parts.append(ModuleMap.zero_map(X.module(n), Y.module(n + 1)))
        self.parts = tuple(parts[: top + 1])
        if check:
            self.validate(strict=True)

    def component(self, n: int) -> ModuleMap:
        X, Y = self.from_map.source, self.from_map.target
        if 0 <= n < len(self.parts):
            return self.parts[n]
        return ModuleMap.zero_map(X.module(n), Y.module(n + 1))

    def validate(self, *, strict: bool = False) -> bool:
        X, Y = self.from_map.source, self.from_map.target
        top = max(X.top, Y.top)
        for n in range(top + 1):
            want = self.to_map.component(n) - self.from_map.component(n)
            got = Y.differential(n + 1).compose(self.component(n))
            if n >= 1:
                got = got + self.component(n - 1).compose(X.differential(n))
            if not map_equal(want, got):
                if strict:
                    raise ValueError(f"homotopy relation fails at degree {n}")
                return False
        return True


class LiftingProblem:
    """Commutative square: top o id = bottom o left against right."""

    __slots__ = ("left", "right", "top", "bottom")

    def __init__(self, left: ChainMap, right: ChainMap,
                 top: ChainMap, bottom: ChainMap, *, check: bool = True):
        if top.source != left.source or top.target != right.source:
            raise ValueError("top leg endpoints mismatch")
        if bottom.source != left.target or bottom.target != right.target:
            raise ValueError("bottom leg endpoints mismatch")
        self.left = left
        self.right = right
        self.top = top
        self.bottom = bottom
        if check and not chain_map_equal(right.compose(top), bottom.compose(left)):
            raise ValueError("lifting square does not commute")
