"""External tracer: times numrange_lab from outside, without touching its code.

`Tracer.install` replaces every public function of the traced modules with a
timing wrapper, in every `numrange_lab` module namespace that binds it (so a
name brought in with `from .x import y` is wrapped too), plus the
`numpy.linalg` eigen and SVD kernels the package calls.  `uninstall` puts the
originals back.

While an operation is open (`Tracer.operation`), each wrapped call appends a
span (operation id, parent span, name, start, end, outcome).  Spans stay in
memory; `aggregate` turns them into per-layer self times and call counts and
`write_spans` dumps them at the end of a run.  Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time

import numpy as np

# The layers are the package's modules; `results` is a thin serializer.
LAYERS = ("classify", "numrange", "oracle", "reduction", "arrowhead", "linalg", "matrixio", "cli", "generators")
# No route calls `commutant_dimension`; the commutant SVD runs in this helper,
# which `decompose` calls at every level of its recursive split.
PRIVATE_SPANS = {"reduction": ("_commutant_nullspace",)}
KERNELS = ("eigh", "eigvalsh", "eigvals", "svd")
EIGEN_KERNELS = ("eigh", "eigvalsh", "eigvals")
# Arrowhead value routes that classify_any tries in turn; each may raise
# NotApplicableError.
ARROWHEAD_ROUTES = ("gauwu_balanced", "gauwu_with_zero_pairs", "dichotomy_check", "gauwu_unbalanced_two")

OUTCOME_VALUE, OUTCOME_NONE, OUTCOME_RAISED = 0, 1, 2


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []  # (op, parent, name_id, t0, t1, outcome, batch)
        self.raised: dict = {}  # span index -> exception class name
        self._stack: list = []
        self._op = -1
        self._patches: list = []  # (namespace, attribute, original)

    # -- installation ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name: str):
        spans, stack, raised, clock = self.spans, self._stack, self.raised, time.perf_counter
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            outcome = OUTCOME_RAISED
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                outcome = OUTCOME_VALUE if out is not None else OUTCOME_NONE
                return out
            except BaseException as exc:
                raised[sid] = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (tracer._op, parent, nid, t0, t1, outcome, 0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _kernel_wrapper(self, fn, kernel: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        scalar_id = self._name_id(f"kernel.{kernel}.scalar")
        batched_id = self._name_id(f"kernel.{kernel}.batched")
        tracer = self

        def wrapper(a, *args, **kwargs):
            if not stack:
                return fn(a, *args, **kwargs)
            shape = np.shape(a)
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 0
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            t0 = clock()
            try:
                return fn(a, *args, **kwargs)
            finally:
                t1 = clock()
                nid = batched_id if batch else scalar_id
                spans[sid] = (tracer._op, parent, nid, t0, t1, OUTCOME_VALUE, batch)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, namespaces, original, wrapper):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        import importlib

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in (*LAYERS, "results")]
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value) or value.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_SPANS.get(layer, ()):
                    continue
                self._replace_everywhere(namespaces, value, self._span_wrapper(value, f"{layer}.{attr.lstrip('_')}"))
        # SupportFunction is the pencil object: count its builds and evaluations
        sf = modules["numrange"].SupportFunction
        for meth, label in (("__init__", "SupportFunction.build"), ("__call__", "SupportFunction.eval")):
            orig = sf.__dict__[meth]
            self._patches.append((sf, meth, orig))
            setattr(sf, meth, self._span_wrapper(orig, f"numrange.{label}"))
        for kernel in KERNELS:
            orig = getattr(np.linalg, kernel)
            self._patches.append((np.linalg, kernel, orig))
            setattr(np.linalg, kernel, self._kernel_wrapper(orig, kernel))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str = "bench.op"):
        """Open a root span; wrapped calls record only inside one."""
        nid = self._name_id(name)
        sid = len(self.spans)
        self.spans.append(None)
        self._op = op_id
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (op_id, -1, nid, t0, t1, OUTCOME_VALUE, 0)

    def reset(self) -> None:
        self.spans.clear()
        self.raised.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "op", "parent", "name", "t0", "t1", "outcome", "batch"]}) + "\n")
            for sid, (op, parent, nid, t0, t1, outcome, batch) in enumerate(self.spans):
                rec = [sid, op, parent, self.names[nid], round(t0, 9), round(t1, 9), outcome, batch]
                if sid in self.raised:
                    rec.append(self.raised[sid])
                fh.write(json.dumps(rec) + "\n")

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name calls and self seconds, plus derived layer metrics."""
        spans, names = self.spans, self.names
        child_time = [0.0] * len(spans)
        for op, parent, nid, t0, t1, outcome, batch in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls = {}
        self_s = {}
        for sid, (op, parent, nid, t0, t1, outcome, batch) in enumerate(spans):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[sid]

        def count(name):
            return calls.get(name, 0)

        def secs(name):
            return self_s.get(name, 0.0)

        m = {}
        for layer in LAYERS:
            prefix = layer + "."
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(prefix))
            m[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
        for name in names:
            if name.startswith("kernel.") or name == "bench.op":
                continue
            m[f"{name}.calls"] = count(name)
            m[f"{name}.self_s"] = secs(name)
        m["numrange.SupportFunction.builds"] = count("numrange.SupportFunction.build")
        m["numrange.SupportFunction.evals"] = count("numrange.SupportFunction.eval")

        for kernel in KERNELS:
            for kind in ("scalar", "batched"):
                m[f"kernel.{kernel}.{kind}_calls"] = count(f"kernel.{kernel}.{kind}")
            m[f"kernel.{kernel}.calls"] = count(f"kernel.{kernel}.scalar") + count(f"kernel.{kernel}.batched")
            m[f"kernel.{kernel}.self_s"] = secs(f"kernel.{kernel}.scalar") + secs(f"kernel.{kernel}.batched")
        m["kernel.eig.self_s"] = sum(m[f"kernel.{k}.self_s"] for k in EIGEN_KERNELS)
        eigen_batched = {self._name_ids.get(f"kernel.{k}.batched") for k in EIGEN_KERNELS}
        m["kernel.eig.batched_matrices"] = sum(s[6] for s in spans if s[2] in eigen_batched)
        m["kernel.self_s"] = sum(m[f"kernel.{k}.self_s"] for k in KERNELS)
        m["bench.self_s"] = secs("bench.op")
        m["ops"] = count("bench.op")

        ka3 = [s for s in spans if names[s[2]] == "classify.ka3_check"]
        m["classify.ka3_check.hit_ratio"] = (
            sum(1 for s in ka3 if s[5] == OUTCOME_VALUE) / len(ka3) if ka3 else 0.0
        )
        verify_ids = {sid for sid, s in enumerate(spans) if names[s[2]] == "oracle.verify"}
        searches = sum(
            1 for s in spans if names[s[2]] == "oracle.max_orthonormal_boundary_set" and s[1] in verify_ids
        )
        m["oracle.verify.searches_per_call"] = searches / len(verify_ids) if verify_ids else 0.0
        routes = {self._name_ids.get(f"arrowhead.{r}") for r in ARROWHEAD_ROUTES}
        route_ids = [sid for sid, s in enumerate(spans) if s[2] in routes]
        not_applicable = sum(1 for sid in route_ids if self.raised.get(sid) == "NotApplicableError")
        m["arrowhead.routes_tried"] = len(route_ids)
        m["arrowhead.not_applicable_ratio"] = not_applicable / len(route_ids) if route_ids else 0.0
        # time cmd_classify spends after classify_any returns (report rebuild)
        recompute = 0.0
        last_child_end = {}
        for sid, s in enumerate(spans):
            if names[s[2]] == "classify.classify_any" and s[1] >= 0 and names[spans[s[1]][2]] == "cli.cmd_classify":
                last_child_end[s[1]] = s[4]
        for parent, end in last_child_end.items():
            recompute += spans[parent][4] - end
        m["cli.recompute_s"] = recompute
        return m
