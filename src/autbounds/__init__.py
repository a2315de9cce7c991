"""autbounds: a verification lab for abelian automorphism-group bounds.

Four layers, each exact:

- :mod:`autbounds.lattice` — integer point sets, mid-point counting,
  chains, arrangement, convexity predicates;
- :mod:`autbounds.lemmas` — seeded generators and verifiers for the
  counting rules that :mod:`autbounds.rules` states, with replayable witnesses;
- :mod:`autbounds.covers` — abelian covers of curves as pure group data:
  genus arithmetic, quotient witnesses, exhaustive extremal enumeration;
- :mod:`autbounds.bounds` — plurigenus arithmetic, decomposability
  margins, the certified universal-n search, and the surface bound table.

The command line front-end (:mod:`autbounds.cli`) wires these into
reproducible, machine-readable runs.
"""

__version__ = "0.1.0"

from .errors import InvariantViolation

__all__ = ["InvariantViolation", "__version__"]
