"""The tracer: binding coverage, patch reversal and self-time arithmetic."""
import importlib
import inspect

import pytest

import randual
from spans import MODULES, Tracer, self_times


def _randual_modules():
    return [randual] + [importlib.import_module(f"randual.{m}") for m in MODULES]


def _public_functions():
    """Every (owner, attribute) binding of a function the tracer must wrap."""
    targets = set()
    for mod in _randual_modules()[1:]:
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if mod.__name__ == "randual.cli" and attr != "main":
                continue
            targets.add(obj)
    bindings = []
    for mod in _randual_modules():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in targets:
                bindings.append((mod, attr, obj))
    return bindings


def test_every_binding_site_is_wrapped_and_restored():
    bindings = _public_functions()
    names = {(m.__name__, a) for m, a, _ in bindings}
    # the from-imports the layer metrics depend on
    for site in [
        ("randual.spinchain", "dual_ensemble"),
        ("randual.cli", "dual_ensemble"),
        ("randual.dual", "haar_state"),
        ("randual.dual", "stinespring_dilate"),
        ("randual.spinchain", "hermitian_eig"),
        ("randual", "dual_ensemble"),
    ]:
        assert site in names
    original_rng = randual.rng.SeedSpec.rng
    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr, obj in bindings:
            wrapped = getattr(mod, attr)
            assert wrapped is not obj and wrapped.__wrapped__ is obj, (mod.__name__, attr)
        assert randual.rng.SeedSpec.rng.__wrapped__ is original_rng
        # the same function through two modules is one wrapper
        assert randual.cli.dual_ensemble is randual.spinchain.dual_ensemble
    finally:
        tracer.uninstall()
    for mod, attr, obj in bindings:
        assert getattr(mod, attr) is obj
    assert randual.rng.SeedSpec.rng is original_rng


def test_spans_record_parent_and_hooks():
    tracer = Tracer()
    tracer.begin_rep()
    try:
        from randual.channels import UnitaryChannel
        from randual.rng import haar_unitary

        ch = UnitaryChannel(haar_unitary(8, 1), d_b=2)
        randual.dual.dual_ensemble(ch, 5, 3)
    finally:
        tracer.end_rep()
    calls = tracer.rep_calls(0)
    assert calls["rng.seed_stream"] == 6  # haar_unitary's int seed + 5 samples
    assert calls["dual.dual_ensemble"] == 1
    assert tracer.counters[0]["dual.state_bytes"] == 5 * 8 * 2 * 16
    ens_idx = tracer.names.index("dual.dual_ensemble")
    seed_idx = tracer.names.index("rng.haar_state")
    parents = {tracer.name_id[tracer.parent[i]] for i in range(len(tracer.start))
               if tracer.name_id[i] == seed_idx and tracer.parent[i] >= 0}  # fmt: skip
    assert parents == {ens_idx}


def test_self_times_of_hand_built_tree():
    #   0 root [0, 10]
    #   1   a [1, 4]      children 3 [2, 3]
    #   2   b [5, 8]
    #   3     c [2, 3]
    #   4   d [7, 12]     overlaps b and runs past the root; only [8, 10] is new cover
    start = [0.0, 1.0, 5.0, 2.0, 7.0]
    end = [10.0, 4.0, 8.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10 - (3 + 3 + 2), 3 - 1, 3, 1, 5])


def test_self_times_of_nested_spans_add_up_to_root():
    start = [0.0, 0.5, 0.6, 2.0, 2.5]
    end = [4.0, 1.5, 1.0, 3.0, 2.75]
    parent = [-1, 0, 1, 0, 3]
    assert sum(self_times(start, end, parent)) == pytest.approx(4.0)
