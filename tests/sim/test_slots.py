"""Hot classes must stay slotted.

Per-instance ``__dict__`` costs memory and attribute-lookup time on
classes instantiated thousands of times per sweep (spans, contexts,
sessions, batch recorders).  A stray class-level change (dropping
``slots=True``, adding a non-slotted dataclass field) silently
reintroduces dicts; this micro-test pins the invariant.
"""

from __future__ import annotations

import pytest

from repro.guestos.context import ExecContext
from repro.guestos.kernel import KernelBatch, KernelOps
from repro.runtimes.base import RuntimeSession, SessionBatch
from repro.sim.ledger import CostLedger
from repro.sim.opstream import BatchLedger, OpBatch
from repro.sim.trace import Span, Trace

SLOTTED = [
    Span, Trace, ExecContext, RuntimeSession,
    OpBatch, BatchLedger,
    KernelOps, KernelBatch, SessionBatch,
    CostLedger,
]


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_hot_class_has_no_instance_dict(cls):
    # a slotted class (and slotted bases all the way up) never lists
    # __dict__ as a descriptor member
    assert not any("__dict__" in getattr(klass, "__dict__", ())
                   for klass in cls.__mro__ if klass is not object), (
        f"{cls.__name__} grew a __dict__; keep it slotted — it is "
        "instantiated on the simulation hot path")


def test_span_rejects_unknown_attributes():
    span = Span(name="x", start_ns=0.0, end_ns=1.0)
    with pytest.raises(AttributeError):
        span.wild_attribute = 1
