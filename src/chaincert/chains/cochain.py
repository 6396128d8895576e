"""Non-negatively graded cochain complexes as grading-reversed chain complexes.

A cochain complex X^0 .. X^t with d^k : X^k -> X^{k+1} is stored as the
chain complex C_n := X^{T-n}, d_n := d^{T-n}, reversed at a top T >= t
(chain degrees below T - t are zero).  There is no cochain complex class:
the codec (`io/document.py`) reverses cochain data on the way in and out,
and a cochain map is a view of one chain map whose ends share the top T.
The Bousfield classifier reads its degreewise bits off the view and its
homotopy equivalences off the chain map.
"""

from __future__ import annotations

from ..exact.modules import ModuleMap
from .build import pad_to_top
from .complexes import ChainMap


class CochainMap:
    """Components g^k := chain_{T-k} of a chain map whose ends have top T."""

    __slots__ = ("chain", "top")

    def __init__(self, chain: ChainMap):
        if chain.source.top != chain.target.top:
            raise ValueError("the ends of a cochain map must share one top")
        self.chain = chain
        self.top = chain.source.top

    def component(self, k: int) -> ModuleMap:
        return self.chain.component(self.top - k)

    @property
    def parts(self) -> tuple[ModuleMap, ...]:
        """The components g^0 .. g^top, in cochain order."""
        return tuple(self.component(k) for k in range(self.top + 1))


def dualize_map(f: ChainMap) -> CochainMap:
    """Reverse a chain map at the larger top of its ends."""
    T = max(f.source.top, f.target.top)
    return CochainMap(ChainMap(pad_to_top(f.source, T),
                               pad_to_top(f.target, T), f.parts, check=False))
