"""``repro.compile``: the knowledge-compilation subsystem.

Symmetric WFOMC separates structure from weights: the expensive object
is the count structure, weights are values plugged into it (the
observation behind the paper's Section 2 weight/probability
correspondences).  This package exploits that separation end to end —
the counting engine's search is traced **once** into a d-DNNF-style
arithmetic circuit (:mod:`.circuit`), and arbitrarily many weight
vectors are then served by linear-time circuit evaluation, with exact
gradients from one backward pass for free.

Entry points
------------

* :func:`compile_cnf` / :func:`compile_formula` /
  :func:`compile_lineage` — trace a propositional instance (or a ground
  lineage) into a :class:`Circuit` over weight-pair leaves;
* :func:`compile_wfomc` — compile a whole ``(formula, n)`` WFOMC
  instance, dispatching to the FO2 cell decomposition or the lineage
  trace like the solver does; returns a :class:`CompiledWFOMC` whose
  ``evaluate``/``evaluate_many``/``gradient`` take any weighted
  vocabulary;
* the solver fast paths — ``compile=True`` on
  :func:`repro.wfomc.solver.wfomc_weight_sweep` /
  :func:`~repro.wfomc.solver.wfomc_batch` /
  :func:`~repro.wfomc.solver.probability`, and ``repro compile`` /
  ``repro sweep --compile`` on the CLI;
* :func:`repro.mln.learning.mln_weight_learn` — gradient-based MLN
  weight learning on the compiled partition-function circuit, the
  workload the gradients exist for.

All evaluation is exact (ints/Fractions), so compiled results are
bit-identical to direct counting; with ``persist=True`` serialized
circuits live in the ``circuits`` namespace of the on-disk store
(:mod:`repro.cache`) keyed on the weight-independent instance identity.
"""

from .circuit import CIRCUIT_FORMAT, Circuit, CircuitBuilder
from .trace import CIRCUITS_NS, compile_cnf, compile_formula, compile_lineage
from .wfomc import (
    CompiledWFOMC,
    clear_compile_cache,
    compile_stats,
    compile_wfomc,
)

__all__ = [
    "CIRCUIT_FORMAT",
    "CIRCUITS_NS",
    "Circuit",
    "CircuitBuilder",
    "CompiledWFOMC",
    "compile_cnf",
    "compile_formula",
    "compile_lineage",
    "compile_wfomc",
    "compile_stats",
    "clear_compile_cache",
]
