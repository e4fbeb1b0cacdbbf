"""Per-language function launchers.

§III-A: each supported language has a *function launcher* that
"instantiates a runtime for the languages that need one", reads the
function and executes it with the given arguments; §IV-D: "our timing
measurements exclude the time required by the launcher to bootstrap
the runtime".  A launcher here builds the runtime session inside the
target VM's guest kernel, bootstraps it (charged as STARTUP, which the
VM's elapsed-time accounting excludes), runs the workload, and
returns a common output shape across languages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.guestos.kernel import GuestKernel
from repro.runtimes.base import RuntimeModel, RuntimeSession
from repro.runtimes.registry import runtime_by_name
from repro.workloads.base import FaasWorkload


@dataclass
class FunctionLauncher:
    """Launches one workload under one language runtime."""

    runtime: RuntimeModel

    @classmethod
    def for_language(cls, language: str) -> "FunctionLauncher":
        return cls(runtime=runtime_by_name(language))

    def launch(self, workload: FaasWorkload,
               args: dict[str, Any] | None = None):
        """A VM-executable callable running the workload.

        The returned callable matches the :meth:`repro.tee.vm.Vm.run`
        signature; the common output shape (workload result + runtime
        facts) eases cross-language comparison, as §IV-B notes.  Bad
        ``args`` raise :class:`~repro.errors.WorkloadError` here, before
        any VM boots.
        """
        args = workload.bind(args)

        def body(kernel: GuestKernel) -> dict[str, Any]:
            session = RuntimeSession(self.runtime, kernel)
            session.bootstrap()          # excluded from timings
            result = workload.run(session, args)
            return {
                "result": result,
                "language": self.runtime.name,
                "gc_runs": session.gc_runs,
                "stdout_lines": session.stdout_lines,
            }

        return body


def native_launcher(fn, *fn_args, **fn_kwargs):
    """Launcher for non-FaaS (classic) workloads.

    §III-A: "in the case of non-FaaS scenarios, the user must
    cross-compile and submit the executable" — here, a plain callable
    taking the guest kernel, with no runtime bootstrap.
    """

    def body(kernel: GuestKernel):
        return fn(kernel, *fn_args, **fn_kwargs)

    return body
