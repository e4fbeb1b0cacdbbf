"""The built-in trial bodies, one module per scenario family.

Each module registers its kinds through
:func:`repro.core.runner.body_factory`.  ``repro.core`` imports this
package, so any import of ``repro.core.runner`` — a spawned worker's
included — registers every built-in kind.
"""

from repro.core.scenarios import attestation, classic, cluster, supplychain

__all__ = ["attestation", "classic", "cluster", "supplychain"]
