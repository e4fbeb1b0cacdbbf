"""Experiment harnesses: one module per paper figure/table.

Each module exposes a ``run_*`` function that regenerates the
artifact's data (with parameters defaulting to the paper's setup) and
returns a result object with ``render()`` (the text figure) and
machine-readable accessors the benches assert shapes on.

==========================  ==========================================
module                       paper artifact
==========================  ==========================================
:mod:`fig3_ml`               Fig. 3 — confidential ML percentile stacks
:mod:`dbms_table`            §IV-C DBMS findings (per-test ratios)
:mod:`fig4_unixbench`        Fig. 4 — UnixBench ratios
:mod:`fig5_attestation`      Fig. 5 — attestation attest/check latency
:mod:`fig5_service`          Fig. 5 ext — verifier service cache tiers
:mod:`fig6_heatmap`          Fig. 6 — TDX+SEV FaaS heatmaps
:mod:`fig7_cca_heatmap`      Fig. 7 — CCA FaaS heatmap
:mod:`fig8_cca_box`          Fig. 8 — CCA box-and-whiskers
:mod:`fig9_cluster`          Fig. 9 ext — cluster resilience sweep
:mod:`fig10_supplychain`     Fig. 10 ext — confidential supply chain
==========================  ==========================================
"""

import importlib

#: Public name -> defining module, resolved on first access (PEP 562):
#: running one figure loads only its harness, not all ten (and not
#: the DBMS engine that only the DBMS table uses).
_EXPORTS = {
    "Fig3Result": "repro.experiments.fig3_ml",
    "run_fig3": "repro.experiments.fig3_ml",
    "DbmsTableResult": "repro.experiments.dbms_table",
    "run_dbms_table": "repro.experiments.dbms_table",
    "Fig4Result": "repro.experiments.fig4_unixbench",
    "run_fig4": "repro.experiments.fig4_unixbench",
    "Fig5Result": "repro.experiments.fig5_attestation",
    "run_fig5": "repro.experiments.fig5_attestation",
    "Fig5ServiceResult": "repro.experiments.fig5_service",
    "run_fig5_service": "repro.experiments.fig5_service",
    "HeatmapResult": "repro.experiments.fig6_heatmap",
    "run_fig6": "repro.experiments.fig6_heatmap",
    "run_fig7": "repro.experiments.fig7_cca_heatmap",
    "Fig8Result": "repro.experiments.fig8_cca_box",
    "run_fig8": "repro.experiments.fig8_cca_box",
    "Fig9ClusterResult": "repro.experiments.fig9_cluster",
    "run_fig9": "repro.experiments.fig9_cluster",
    "Fig10SupplyResult": "repro.experiments.fig10_supplychain",
    "run_fig10": "repro.experiments.fig10_supplychain",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
