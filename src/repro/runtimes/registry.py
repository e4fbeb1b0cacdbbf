"""The seven runtimes of §IV-A.

Calibration rationale per runtime:

- **Python** (CPython): bytecode dispatch ~40x native, everything is a
  heap object → heavy allocation churn, generational GC.
- **Node.js** (V8): JIT brings hot code near-native, but the nursery
  churn and hidden-class machinery keep memory traffic high.
- **Ruby** (MRI/YARV): the heaviest interpreter of the set, heavy
  object allocation.
- **Lua** (PUC interpreter): famously small and light — the paper's
  example of a low-overhead runtime in TEEs.
- **LuaJIT**: trace JIT, near-native hot loops, Lua's light memory
  profile.
- **Go**: compiled ahead of time; escape analysis keeps most values
  off the heap; tiny startup.
- **Wasm** (Wasmi v0.32): an efficient *interpreter* in Rust —
  slower than JITs but with a compact linear memory and almost no GC
  traffic.
"""

from __future__ import annotations

from repro.errors import UnknownRuntimeError
from repro.runtimes.base import RuntimeModel

_MS = 1e6   # ns per millisecond

_MODELS: dict[str, RuntimeModel] = {
    "python": RuntimeModel(
        name="python",
        startup_ns=28 * _MS,
        dispatch_factor=40.0,
        alloc_bytes_per_unit=44.0,
        mem_refs_per_unit=6.0,
        gc_threshold_bytes=2 * 1024 * 1024,
        gc_scan_fraction=0.35,
    ),
    "node": RuntimeModel(
        name="node",
        startup_ns=45 * _MS,
        dispatch_factor=26.0,
        jit_factor=3.0,
        jit_warmup_units=60_000,
        alloc_bytes_per_unit=5.2,
        mem_refs_per_unit=0.8,
        gc_threshold_bytes=4 * 1024 * 1024,
        gc_scan_fraction=0.25,
    ),
    "ruby": RuntimeModel(
        name="ruby",
        startup_ns=60 * _MS,
        dispatch_factor=48.0,
        alloc_bytes_per_unit=62.0,
        mem_refs_per_unit=7.0,
        gc_threshold_bytes=2 * 1024 * 1024,
        gc_scan_fraction=0.40,
    ),
    "lua": RuntimeModel(
        name="lua",
        startup_ns=1.5 * _MS,
        dispatch_factor=15.0,
        alloc_bytes_per_unit=5.3,
        mem_refs_per_unit=1.2,
        gc_threshold_bytes=1 * 1024 * 1024,
        gc_scan_fraction=0.20,
    ),
    "luajit": RuntimeModel(
        name="luajit",
        startup_ns=2 * _MS,
        dispatch_factor=15.0,
        jit_factor=1.8,
        jit_warmup_units=25_000,
        alloc_bytes_per_unit=0.45,
        mem_refs_per_unit=0.08,
        gc_threshold_bytes=1 * 1024 * 1024,
        gc_scan_fraction=0.20,
    ),
    "go": RuntimeModel(
        name="go",
        startup_ns=0.9 * _MS,
        dispatch_factor=1.35,
        alloc_bytes_per_unit=0.11,
        mem_refs_per_unit=0.09,
        gc_threshold_bytes=8 * 1024 * 1024,
        gc_scan_fraction=0.15,
    ),
    "wasm": RuntimeModel(
        name="wasm",
        startup_ns=4 * _MS,
        dispatch_factor=10.0,
        alloc_bytes_per_unit=1.5,
        mem_refs_per_unit=1.0,
        gc_threshold_bytes=16 * 1024 * 1024,
        gc_scan_fraction=0.05,
    ),
}

#: Registry order used by the heatmap figures (lighter → heavier).
RUNTIME_NAMES = ("python", "node", "ruby", "lua", "luajit", "go", "wasm")


def runtime_by_name(name: str) -> RuntimeModel:
    """Look up a runtime model.

    Raises
    ------
    UnknownRuntimeError
        If the runtime is not one of the seven supported ones.
    """
    try:
        return _MODELS[name]
    except KeyError:
        raise UnknownRuntimeError(
            f"unknown runtime {name!r}; supported: {', '.join(RUNTIME_NAMES)}"
        ) from None
