"""Every function the benchmark's --trace 1 mode wraps still exists in the package.

perfbench/tracing.py patches library functions by (owner, attribute)
from outside src/, so deleting or renaming one of them would break
traced benchmark runs without failing anything else in this suite.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    points = tracing.patch_points()
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _ in points
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []
