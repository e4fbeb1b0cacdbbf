"""Language runtime cost models.

ConfBench's FaaS mode executes functions through the seven runtimes
the paper evaluates: Python, Node.js, Ruby, Lua, LuaJIT, Go and Wasm
(the Wasmi interpreter).  Each runtime is a cost model describing how
it expands abstract *compute units* into machine work:

- **dispatch factor** — interpreter/JIT instruction expansion;
- **allocation traffic** — bytes allocated per unit of work (object
  headers, boxing, GC nursery churn);
- **GC behaviour** — periodic heap scans once enough allocation debt
  accumulates;
- **JIT warmup** — Node and LuaJIT start at interpreter speed and
  drop to compiled speed after a warmup threshold;
- **startup** — runtime bootstrap, which ConfBench's launchers
  exclude from timing measurements.

The TEE-relevant consequence, visible in Fig. 6/7: heavier managed
runtimes generate more memory traffic, and memory traffic is exactly
what confidential VMs tax (encryption, integrity, RMP checks) — so
Python/Node/Ruby cells run hotter than Lua/LuaJIT/Go/Wasm cells.
"""

from repro.runtimes.base import RuntimeModel, RuntimeSession
from repro.runtimes.registry import (
    RUNTIME_NAMES,
    runtime_by_name,
)

__all__ = [
    "RuntimeModel",
    "RuntimeSession",
    "RUNTIME_NAMES",
    "runtime_by_name",
]
