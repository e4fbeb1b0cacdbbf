"""Batched op streams: the simulation kernel's fast path.

The per-op path charges the ledger one operation at a time — every
charge pays a method-dispatch chain (workload → kernel → context →
ledger/clock), an enum hash, and a noise draw wrapped in Python-level
calls.  At UnixBench scale that is ~3000 charges per trial and the
binding constraint on trials/second (DESIGN.md, "Simulation kernel:
batched op streams").

This module batches that hot path.  Workload emitters describe work as
an :class:`OpBatch` — an ordered program of *(op sequence, repeat
count)* entries — which the execution context prices once per entry
and folds into its :class:`~repro.sim.ledger.CostLedger` through a
:class:`BatchLedger` in a single merge.

Byte-identity contract
----------------------
Batched execution must be bit-identical to replaying the same ops one
at a time.  Three accumulation orders are load-bearing:

1. **Per-category ledger totals** are left folds over that category's
   charges in global charge order, seeded from the value already in
   the ledger (``((existing + c1) + c2)``, never
   ``existing + (c1 + c2)`` — float addition does not reassociate).
2. **The virtual clock** is a left fold over *all* charges in global
   charge order.
3. **Noise draws** are assigned one per charge, in global charge
   order, from the context's RNG stream.

:func:`accumulate` implements exactly that fold as one tight Python
loop.  It is deliberately *not* vectorised: numpy's reductions use
pairwise summation, which changes rounding and breaks the contract.
"""

from __future__ import annotations

import math
import random
from itertools import chain, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.errors import SimulationError
from repro.sim.ledger import CostCategory, CostLedger


class Op(NamedTuple):
    """One simulated operation, platform-independent.

    ``kind`` selects the pricing rule (see
    :meth:`repro.guestos.context.ExecContext._price`); ``args`` are
    the operation's size parameters.  Ops are value objects — equal
    ops price identically — which is what lets :class:`OpBatch`
    coalesce repeated sequences into *(pattern, count)* entries.
    """

    kind: str
    args: tuple = ()


class OpBatch:
    """An ordered op program: a list of *(op sequence, count)* entries.

    Consecutive identical sequences coalesce automatically, so a
    workload loop that emits the same composite op per iteration
    collapses to a single entry priced once.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[tuple[tuple[Op, ...], int]] = []

    def add(self, op: Op, count: int = 1) -> None:
        """Append ``count`` repetitions of a single op."""
        self.add_seq((op,), count)

    def add_seq(self, ops: Sequence[Op], count: int = 1) -> None:
        """Append ``count`` repetitions of an op sequence (in order)."""
        if count < 0:
            raise SimulationError(f"negative op count: {count}")
        if count == 0 or not ops:
            return
        ops = tuple(ops)
        if self.entries and self.entries[-1][0] == ops:
            last_ops, last_count = self.entries[-1]
            self.entries[-1] = (last_ops, last_count + count)
        else:
            self.entries.append((ops, count))

    def op_count(self) -> int:
        """Total individual ops described (repetitions expanded)."""
        return sum(len(ops) * count for ops, count in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __repr__(self) -> str:
        return f"OpBatch(entries={len(self.entries)}, ops={self.op_count()})"


#: One repetition's charges: ordered (category, raw pre-noise ns) pairs.
ChargePattern = tuple[tuple[CostCategory, float], ...]


#: 2*pi, matching the constant ``random.py`` uses for Box-Muller.
_TWOPI = 2.0 * math.pi
_INF = math.inf


def accumulate(
    program: Iterable[tuple[ChargePattern, int]],
    sim_mult: float,
    run_noise: float,
    sigma: float,
    rng: "random.Random",
    initial: Callable[[CostCategory], float],
    now: float,
) -> tuple[list[tuple[CostCategory, float]], float, float]:
    """Run a charge program; the byte-identity kernel.

    ``program`` yields *(pattern, count)* entries; each pattern is the
    ordered charge list of one repetition, with raw (pre-multiplier)
    nanoseconds.  ``sim_mult`` and ``run_noise`` are applied as two
    separate multiplications, left to right, exactly like the per-op
    ``charge`` — pre-combining them into one factor would reassociate
    the product and change rounding.  ``sigma`` is the per-op noise
    sigma (one ``exp(gauss(0, sigma))`` draw per charge when
    positive); the draws come from ``rng``, a ``random.Random``
    instance.  ``initial`` reads the existing ledger value of a
    category, and ``now`` is the clock's current reading.

    The Gaussian draw is ``random.Random.gauss`` inlined: the same
    Box-Muller recurrence, the same ``math`` functions, and the same
    ``gauss_next`` pair cache (read from ``rng`` on entry, synced back
    on exit) — bit-identical to calling the method, at less than half
    the cost, which is what makes the batch path fast at all.  The
    cache sync means batched and per-op draws interleave freely on
    one stream.

    Returns ``(items, now, total)`` where ``items`` lists the touched
    categories in first-charge order with their new running totals,
    ``now`` is the final clock value, and ``total`` is the charged
    sum.  ``items`` and ``now`` are bit-identical to per-op charging;
    ``total`` is a flat left fold over all charges and may differ in
    the last ulp from summing per-op *return values* (which group
    charges per composite op) — no serialized artifact consumes it.

    The inner loop is sequential by contract (see module docstring):
    per-category values and the clock accumulate as left folds in
    global charge order, exactly as the per-op path does.
    """
    exp = math.exp
    log = math.log
    sqrt = math.sqrt
    cos = math.cos
    sin = math.sin
    random_ = rng.random
    nxt = rng.gauss_next
    order: list[CostCategory] = []
    index_of: dict[CostCategory, int] = {}
    values: list[float] = []
    total = 0.0
    try:
        for pattern, count in program:
            if count <= 0 or not pattern:
                continue
            compiled: list[tuple[int, float]] = []
            for category, raw in pattern:
                base = raw * sim_mult * run_noise
                if not 0.0 <= base < _INF:
                    raise SimulationError(
                        f"cannot charge {raw!r} ns to {category}")
                index = index_of.get(category)
                if index is None:
                    index = index_of[category] = len(order)
                    order.append(category)
                    values.append(initial(category))
                compiled.append((index, base))
            if sigma > 0.0:
                # Box-Muller yields draws in (cos, sin) pairs; the loops
                # below are unrolled two charges per trigonometric pair so
                # the straight-line body skips the per-charge pair-cache
                # branch.  Draw order is unchanged — cos first, sin second,
                # odd tails stash the sin half in ``nxt`` — so the stream
                # stays bit-identical to calling ``Random.gauss`` per charge.
                if len(compiled) == 1:
                    index, base = compiled[0]
                    acc = values[index]
                    remaining = count
                    if nxt is not None:
                        charged = base * exp(0.0 + nxt * sigma)
                        nxt = None
                        acc += charged
                        now += charged
                        total += charged
                        remaining -= 1
                    for _ in range(remaining // 2):
                        x2pi = random_() * _TWOPI
                        g2rad = sqrt(-2.0 * log(1.0 - random_()))
                        charged = base * exp(0.0 + cos(x2pi) * g2rad * sigma)
                        acc += charged
                        now += charged
                        total += charged
                        charged = base * exp(0.0 + sin(x2pi) * g2rad * sigma)
                        acc += charged
                        now += charged
                        total += charged
                    if remaining & 1:
                        x2pi = random_() * _TWOPI
                        g2rad = sqrt(-2.0 * log(1.0 - random_()))
                        charged = base * exp(0.0 + cos(x2pi) * g2rad * sigma)
                        nxt = sin(x2pi) * g2rad
                        acc += charged
                        now += charged
                        total += charged
                    values[index] = acc
                else:
                    stream = iter(chain.from_iterable(
                        repeat(compiled, count)))
                    remaining = count * len(compiled)
                    if nxt is not None:
                        index, base = next(stream)
                        charged = base * exp(0.0 + nxt * sigma)
                        nxt = None
                        values[index] += charged
                        now += charged
                        total += charged
                        remaining -= 1
                    # zip consumes left to right (guaranteed), pairing
                    # consecutive charges with one Box-Muller pair each
                    for (index, base), (index2, base2) in zip(stream, stream):
                        x2pi = random_() * _TWOPI
                        g2rad = sqrt(-2.0 * log(1.0 - random_()))
                        charged = base * exp(0.0 + cos(x2pi) * g2rad * sigma)
                        values[index] += charged
                        now += charged
                        total += charged
                        charged = base2 * exp(0.0 + sin(x2pi) * g2rad * sigma)
                        values[index2] += charged
                        now += charged
                        total += charged
                    if remaining & 1:
                        # zip above pulled (and dropped) the odd final
                        # charge before stopping; it is always the last
                        # charge of the last repetition
                        index, base = compiled[-1]
                        x2pi = random_() * _TWOPI
                        g2rad = sqrt(-2.0 * log(1.0 - random_()))
                        charged = base * exp(0.0 + cos(x2pi) * g2rad * sigma)
                        nxt = sin(x2pi) * g2rad
                        values[index] += charged
                        now += charged
                        total += charged
            else:
                # no noise draw at sigma == 0 (mirrors
                # SimRng.lognormal_factor); still a sequential fold —
                # repeated addition does not reassociate to
                # multiplication in floats
                if len(compiled) == 1:
                    index, base = compiled[0]
                    acc = values[index]
                    for _ in range(count):
                        acc += base
                        now += base
                        total += base
                    values[index] = acc
                else:
                    for _ in range(count):
                        for index, base in compiled:
                            values[index] += base
                            now += base
                            total += base
    finally:
        rng.gauss_next = nxt
    return list(zip(order, values)), now, total


class BatchLedger:
    """Stages a charge program and folds it into a ledger in one merge.

    Binds the accumulate kernel to a concrete context: the target
    :class:`~repro.sim.ledger.CostLedger`, the virtual clock, the
    platform's simulator multiplier, the run's noise factor, the
    per-op noise sigma and the noise stream's ``random.Random``.
    :meth:`run` executes the program and commits per-category totals
    with a single :meth:`CostLedger.apply_batch` call and a single
    exact clock jump — thousands of charges, one merge.
    """

    __slots__ = ("ledger", "clock", "sim_mult", "run_noise", "sigma", "rng")

    def __init__(self, ledger: CostLedger, clock, sim_mult: float,
                 run_noise: float, sigma: float,
                 rng: random.Random) -> None:
        self.ledger = ledger
        self.clock = clock
        self.sim_mult = sim_mult
        self.run_noise = run_noise
        self.sigma = sigma
        self.rng = rng

    def run(self, program: Iterable[tuple[ChargePattern, int]]) -> float:
        """Execute ``program``; returns total charged nanoseconds."""
        items, now, total = accumulate(
            program, self.sim_mult, self.run_noise, self.sigma, self.rng,
            self.ledger.get, self.clock.now(),
        )
        self.ledger.apply_batch(items)
        # advance_to assigns the fold's exact final value; advancing by
        # (now - start) instead would round differently
        self.clock.advance_to(now)
        return total
