"""Tests of the benchmark tracer: self-time arithmetic and patch restore.

Run from the repository root with cusm importable:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import inspect
import pkgutil

import pytest

import cusm
import spantrace


def test_self_time_subtracts_union_of_child_intervals():
    # root [0, 10] has children [1, 5] and [2, 3], which overlap, and [8, 12],
    # which overhangs the root; [1.5, 2.5] is a grandchild under [1, 5].
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 5.0, 3.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    got = spantrace.self_times(start, end, parent)
    # root: 10 - |[1, 5] u [8, 10]| = 10 - 6; [1, 5]: 4 - 1
    assert got.tolist() == pytest.approx([4.0, 3.0, 1.0, 4.0, 1.0])


def _snapshot() -> dict:
    """Every attribute of every cusm module and of every class they define."""
    for info in pkgutil.iter_modules(cusm.__path__):
        importlib.import_module(f"cusm.{info.name}")
    snap = {}
    for module in spantrace.cusm_modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("cusm"):
                for cattr, cvalue in vars(value).items():
                    snap[(module.__name__, attr, cattr)] = cvalue
    return snap


def test_tracing_patches_every_binding_and_restores_it(tmp_path):
    before = _snapshot()
    tracer = spantrace.Tracer()
    from cusm import cli, dynamics, numerics, readout, train

    with tracer.tracing():
        qr = numerics.thin_qr_unique
        assert qr is not before[("cusm.numerics", "thin_qr_unique")]
        assert train.thin_qr_unique is qr and readout.thin_qr_unique is qr
        assert dynamics.InteractionFactors.materialize is not \
            before[("cusm.dynamics", "InteractionFactors", "materialize")]
        assert cli.main(["gen-task", "--n", "2", "--seed", "0",
                         "--output-dir", str(tmp_path)]) == 0

    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["septask.make_task"]["calls"] == 1
    assert summary["numerics.vec_hermitian"]["calls"] > 0
    # spans nest under the command and self time never exceeds duration
    root = tracer.name.index("cli.main")
    assert tracer.parent[root] == -1
    assert all(p == -1 or p >= root for p in tracer.parent)
    assert summary["cli.main"]["self_s"] <= summary["cli.main"]["p50_us"] * 1e-6
