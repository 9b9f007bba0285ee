"""In-memory span tracing of randual from outside the package.

The tracer wraps every public function of the randual modules and replaces
each binding of it, in every module that imported it with `from .x import y`
and in the package namespace, so a call reaches the wrapper whichever name
it goes through. `SeedSpec.rng` is wrapped as `rng.seed_stream`. In `cli`
only `main` is wrapped, so its self time holds the subcommand bodies:
argument parsing, cap checks and the CSV/JSON writes with their sha256.

A span records its name, start, end and parent (the span open when it
started). Spans stay in flat arrays until the run ends. A span's self time
is its duration minus the part of it that its child spans cover.

Hooks run after selected calls and count what the timing cannot show:
bytes of the states and dense matrices returned, and the useful-work ratios
of postselected ensembles. A hook runs inside its own `trace.hook` span, a
child of the caller, so its cost never lands in a layer's self time.
"""
from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np
from randual.channels import dilation_dim  # bound before any patching

MODULES = ("rng", "dual", "linalg", "spinchain", "channels", "otoc", "cli")
HOOK_SPAN = "trace.hook"

# Functions returning a dual-layout d x d matrix; nested calls among them
# (exact_dual -> exact_dual_state) count once.
_DENSE_DUAL = ("dual.dual_estimate", "dual.exact_dual", "dual.exact_dual_state", "dual.dual_from_choi")


def self_times(start, end, parent) -> list[float]:
    """Duration minus the union of the child intervals, per span."""
    n = len(start)
    covered = [0.0] * n
    reach: dict[int, float] = {}  # per parent, the end of what is covered so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, -np.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, -np.inf), hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    """Span store plus the patching that routes randual calls through it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.reps: list[tuple[int, int]] = []  # span index range of each traced rep
        self.counters: list[Counter] = []  # hook counts of each traced rep
        self.sizes: dict[int, str] = {}  # span index -> size key for per-call checks
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict | None = None
        self._hook_id = self._intern(HOOK_SPAN)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def wrap(self, name: str, fn):
        """Return fn wrapped so each call records a span named `name`."""
        nid = self._intern(name)
        hook = HOOKS.get(name)
        stack, end, clock, open_ = self._stack, self.end, time.perf_counter, self._open

        def traced(*args, **kwargs):
            idx = open_(nid)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()
            if hook is not None:
                hid = open_(self._hook_id)
                try:
                    hook(self, idx, args, kwargs, result)
                finally:
                    end[hid] = clock()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- patching ----------------------------------------------------------

    def _build_wrappers(self) -> dict:
        import randual

        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"randual.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or (short == "cli" and attr != "main"):
                    continue
                wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        self._seed_stream = self.wrap("rng.seed_stream", vars(randual.rng.SeedSpec)["rng"])
        return wrappers

    def install(self) -> None:
        """Route every randual binding of a public function through its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        import randual

        for mod in [randual] + [importlib.import_module(f"randual.{m}") for m in MODULES]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(mod, attr, self._wrappers[obj])
        self._patch(randual.rng.SeedSpec, "rng", self._seed_stream)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reps --------------------------------------------------------------

    def begin_rep(self) -> None:
        self.counters.append(Counter())
        self.reps.append((len(self.start), -1))
        self.install()

    def end_rep(self) -> None:
        self.uninstall()
        lo, _ = self.reps[-1]
        self.reps[-1] = (lo, len(self.start))

    def count(self, key: str, value: float) -> None:
        self.counters[-1][key] += value

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return None if p < 0 else self.names[self.name_id[p]]

    def rep_calls(self, rep: int) -> Counter:
        lo, hi = self.reps[rep]
        return Counter(self.names[i] for i in self.name_id[lo:hi])

    def rep_self_times(self, rep: int) -> dict[str, float]:
        """Summed self time per span name within one traced rep."""
        lo, hi = self.reps[rep]
        parents = [p - lo if p >= lo else -1 for p in self.parent[lo:hi]]
        out: dict[str, float] = {}
        for nid, s in zip(self.name_id[lo:hi], self_times(self.start[lo:hi], self.end[lo:hi], parents)):
            name = self.names[nid]
            out[name] = out.get(name, 0.0) + s
        return out

    def rep_per_call(self, rep: int) -> dict[str, list[float]]:
        """Span durations of each size key seen in one traced rep."""
        lo, hi = self.reps[rep]
        out: dict[str, list[float]] = {}
        for idx, key in self.sizes.items():
            if lo <= idx < hi:
                out.setdefault(key, []).append(self.end[idx] - self.start[idx])
        return out


# ---------------------------------------------------------------------------
# hooks: (tracer, span index, args, kwargs, result)
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _ensemble_hook(tr: Tracer, idx, args, kwargs, ens) -> None:
    n, d = ens.states.shape
    tr.count("dual.state_bytes", n * d * 16)
    if ens.kind != "general_postselected":
        return
    drawn = n * ens.d_b * dilation_dim(_arg(args, kwargs, 0, "ch"))
    tr.count("postselect.kept", n * d)
    tr.count("postselect.drawn", drawn)
    w = np.einsum("ki,ki->k", ens.states.conj(), ens.states).real
    tr.count("postselect.ess", w.sum() ** 2 / np.dot(w, w))
    tr.count("postselect.n", n)


def _dense_hook(tr: Tracer, idx, args, kwargs, result) -> None:
    if tr.parent_name(idx) not in _DENSE_DUAL:
        n, m = result.shape
        tr.count("dual.dense_bytes", n * m * 16)
    if tr.names[tr.name_id[idx]] == "dual.dual_estimate":
        ens = _arg(args, kwargs, 0, "ens")
        tr.sizes[idx] = f"dual_estimate_N{ens.n_samples}_d{ens.states.shape[1]}"


def _variance_hook(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.sizes[idx] = f"variance_bound_d{_arg(args, kwargs, 0, 'ch').d_a}"


def _eig_hook(tr: Tracer, idx, args, kwargs, result) -> None:
    tr.sizes[idx] = f"hermitian_eig_d{result[0].shape[0]}"


HOOKS = {
    "dual.dual_ensemble": _ensemble_hook,
    "dual.general_dual_ensemble": _ensemble_hook,
    "dual.variance_bound": _variance_hook,
    "linalg.hermitian_eig": _eig_hook,
    **{name: _dense_hook for name in _DENSE_DUAL},
}
