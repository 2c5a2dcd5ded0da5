"""The benchmark's traced targets must stay where its tracer looks for them.

``perfbench/workloads.py`` wraps each ``(owner, attr)`` of ``TARGETS`` and
``SAMPLE_TARGETS`` in place, resolving it as ``Tracer.instrument`` does:
``owner[attr]`` for a dict, otherwise ``owner.__dict__[attr]`` — defined on
that very owner, not inherited. A refactor that moves or renames a traced
function fails here instead of crashing a benchmark run.
"""
import sys
from pathlib import Path

import pytest

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(_PERFBENCH)

TARGETS = workloads.TARGETS + workloads.SAMPLE_TARGETS


@pytest.mark.parametrize("owner, attr", [t[:2] for t in TARGETS],
                         ids=[t[2] for t in TARGETS])
def test_traced_target_resolves(owner, attr):
    found = owner.get(attr) if isinstance(owner, dict) else owner.__dict__.get(attr)
    assert callable(found), f"{owner!r} defines no {attr}"
