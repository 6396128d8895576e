"""Per-layer tracing of chaincert from outside the package.

`Tracer.install()` replaces each traced public function at every module
attribute bound to it, in any loaded module (``from ... import solve``
copies the binding into the importing module, so patching the defining
module alone would miss those callers), and `uninstall()` restores them.
Spans are kept in memory as parallel arrays and written out once, when the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array

# layer -> the functions whose calls make up its spans; `.calls` counts
# every call, `.s` is the wall time of spans with no same-layer ancestor
# and `.self_s` subtracts the time covered by child spans
LAYERS: dict[str, tuple[str, ...]] = {
    "exact.snf": ("chaincert.exact.snf:snf",),
    "exact.solve": ("chaincert.exact.snf:solve",),
    "exact.relations": ("chaincert.exact.equations:solve_map_relations",),
    "exact.split": ("chaincert.exact.splitting:is_split_mono",
                    "chaincert.exact.splitting:is_split_epi"),
    "chains.contraction": ("chaincert.chains.homotopy:find_contraction",),
    "chains.he": ("chaincert.chains.homotopy:is_chain_homotopy_equivalence",),
    "chains.homology": ("chaincert.chains.homology:homology_data",),
    "models.classify": tuple(
        f"chaincert.models.classify:{name}" for name in (
            "classify", "bousfield_classify", "split_mono_bit",
            "split_epi_bit", "homotopy_equivalence_bit", "surjectivity_bit",
            "q_cofibration_bit", "quasi_iso_bit", "h_cofibration_bit",
            "h_fibration_bit", "verify_m_cofibration")),
    "models.lift": ("chaincert.models.lifting:find_lift",),
    "models.generate": tuple(
        f"chaincert.models.generators:{name}" for name in (
            "random_complex", "twist_complex_with_iso", "random_chain_map",
            "random_split_mono", "random_split_epi", "random_q_cofibration",
            "random_map_for_agreement")),
    "simplicial.gamma": ("chaincert.simplicial.module:gamma",
                         "chaincert.simplicial.module:gamma_map"),
    "simplicial.tensor": ("chaincert.simplicial.module:degreewise_tensor",
                          "chaincert.simplicial.module:tensor_normalized_map"),
    "simplicial.ez_aw": ("chaincert.simplicial.ez_aw:ez",
                         "chaincert.simplicial.ez_aw:aw",
                         "chaincert.simplicial.ez_aw:find_ez_aw_homotopy"),
    "simplicial.pushout_product": (
        "chaincert.simplicial.classify:pushout_product_simplicial",),
    "io.parse": ("chaincert.io.document:parse_document",
                 "chaincert.io.document:parse_chain_complex",
                 "chaincert.io.document:parse_cochain_complex",
                 "chaincert.io.document:chain_map_from_json"),
    "io.dump": ("chaincert.io.reports:dump",
                "chaincert.io.reports:classification_report",
                "chaincert.io.reports:bousfield_report",
                "chaincert.io.reports:lift_report",
                "chaincert.io.document:chain_map_to_json",
                "chaincert.io.document:complex_to_json"),
    "io.verify": ("chaincert.io.reports:verify_report",),
    "cli.command": ("chaincert.cli:main",),
}

OP = "op"  # root span of one benchmark operation

# captured snf calls for the output checks: every SNF_SAMPLE_EVERY-th call
# with at most SNF_SAMPLE_MAX_ENTRIES entries, at most SNF_SAMPLE_CAP of them
SNF_SAMPLE_EVERY = 23
SNF_SAMPLE_CAP = 48
SNF_SAMPLE_MAX_ENTRIES = 1600


def _bits(rows) -> int:
    top = 0
    for row in rows:
        if row:
            top = max(top, max(row), -min(row))
    return top.bit_length()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP] + list(LAYERS)
        self.layer_id = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_tax = array("d")   # hook time spent after the span ended
        self.stack: list[int] = []
        self.snf_shape = [0, 0, 0, 0]  # rows, cols, nnz, bits
        self.relations_unknowns = 0
        self.snf_samples: list[tuple] = []
        self._sample_every = SNF_SAMPLE_EVERY
        self.predicate_calls = 0
        self.report_bytes = 0
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}  # "module:function" -> it

    # -- spans --------------------------------------------------------

    def _open(self, layer: int) -> int:
        idx = len(self.span_layer)
        self.span_layer.append(layer)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_tax.append(0.0)
        self.stack.append(idx)
        self.calls[layer] += 1
        self.span_start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def op_span(self):
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, layer_name: str, func, hook=None):
        layer = self.layer_id[layer_name]
        open_, close = self._open, self._close
        tax = self.span_tax

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = open_(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                t0 = time.perf_counter()
                hook(args, result)
                tax[idx] += time.perf_counter() - t0
            return result

        return traced

    # -- hooks --------------------------------------------------------

    def _snf_hook(self, args, result) -> None:
        m = args[0]
        shape = self.snf_shape
        nnz = sum(len(r) - r.count(0) for r in m.data)
        bits = max(_bits(result.U.data), _bits(result.D.data),
                   _bits(result.V.data))
        shape[0] = max(shape[0], m.rows)
        shape[1] = max(shape[1], m.cols)
        shape[2] = max(shape[2], nnz)
        shape[3] = max(shape[3], bits)
        index = self.calls[self.layer_id["exact.snf"]] - 1
        if (index % self._sample_every == 0
                and 0 < m.rows * m.cols <= SNF_SAMPLE_MAX_ENTRIES):
            self.snf_samples.append((m, result))
            if len(self.snf_samples) > SNF_SAMPLE_CAP:
                # keep the sample spread over the whole run: halve it and
                # take every other call from now on
                del self.snf_samples[1::2]
                self._sample_every *= 2

    def _relations_hook(self, args, result) -> None:
        variables = args[1]
        unknowns = sum(v.rows * v.cols for v in variables)
        self.relations_unknowns = max(self.relations_unknowns, unknowns)

    def _predicate_wrapper(self, predicate):
        def counted(case, config):
            self.predicate_calls += 1
            return predicate(case, config)
        return counted

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import importlib
        import pkgutil

        import chaincert
        import chaincert.certify as certify

        # import every submodule first, so none binds a wrapper at import
        # time that uninstall() would not know about
        for info in pkgutil.walk_packages(chaincert.__path__, "chaincert."):
            importlib.import_module(info.name)

        hooks = {"exact.snf": self._snf_hook,
                 "exact.relations": self._relations_hook}
        # every loaded module, the benchmark's own included: its calls into
        # the program count as much as the program's calls into itself
        modules = [m for _, m in sorted(sys.modules.items()) if m is not None]
        for layer_name, targets in LAYERS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                original = getattr(sys.modules[mod_name], attr)
                self.originals[target] = original
                wrapped = self._wrap(layer_name, original,
                                     hooks.get(layer_name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapped)
        for suite in certify.SUITES.values():
            self._patched.append((suite, "predicate", suite.predicate))
            suite.predicate = self._predicate_wrapper(suite.predicate)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()

    # -- results --------------------------------------------------------

    def layer_times(self) -> tuple[list[float], list[float]]:
        """(outermost wall time, self time) per layer."""
        n = len(self.span_layer)
        covered = [0.0] * n
        layer, parent = self.span_layer, self.span_parent
        start, end, tax = self.span_start, self.span_end, self.span_tax
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i] + tax[i]
        wall = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        # bit mask of the layers open above each span; a span's parent
        # always precedes it, so one forward pass suffices
        above = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                above[i] = above[p] | (1 << layer[p])
            duration = end[i] - start[i]
            self_time[layer[i]] += duration - covered[i]
            if not above[i] >> layer[i] & 1:
                wall[layer[i]] += duration
        return wall, self_time

    def metrics(self, names: list[str], rounds: int, cases: int,
                untraced_wall: float, traced_wall: float) -> dict[str, float]:
        """The per-layer figures `names` (as BENCHMARK.json lists them),
        per round of `cases` operations; the traced and untraced wall times
        cover `rounds` rounds each.  A layer's `.calls`, `.s` and `.self_s`
        come from its spans, the other figures from the hooks."""
        wall, self_time = self.layer_times()
        lid = self.layer_id
        out: dict[str, float] = {}
        for layer, i in lid.items():
            out[f"{layer}.calls"] = self.calls[i] / rounds
            out[f"{layer}.s"] = wall[i] / rounds
            out[f"{layer}.self_s"] = self_time[i] / rounds
        rows, cols, nnz, bits = self.snf_shape
        out.update({
            "exact.snf.max_rows": rows, "exact.snf.max_cols": cols,
            "exact.snf.max_nnz": nnz, "exact.snf.max_bits": bits,
            "exact.relations.max_unknowns": self.relations_unknowns,
            "io.report_bytes": self.report_bytes,
            "certify.predicate_calls": self.predicate_calls / rounds,
            "certify.useful_frac": (cases * rounds / self.predicate_calls
                                    if self.predicate_calls else 0.0),
            "trace.snf_self_share": (self_time[lid["exact.snf"]] / traced_wall
                                     if traced_wall else 0.0),
            "trace.untraced_wall_s": untraced_wall / rounds,
            "trace.traced_wall_s": traced_wall / rounds,
            "trace.overhead_s": (traced_wall - untraced_wall) / rounds,
        })
        unknown = sorted(set(names) - set(out))
        if unknown:
            raise KeyError(f"no per-layer figure named {unknown}")
        return {name: out[name] for name in names}

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_layer)):
                fh.write(f"{i}\t{self.names[self.span_layer[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\n")
