"""repro — optimal repairs for functional dependencies.

A complete reproduction of *Computing Optimal Repairs for Functional
Dependencies* (Livshits, Kimelfeld, Roy — PODS 2018, arXiv:1712.07705):

* optimal **S-repairs** (minimum-weight tuple deletions): the ``OptSRepair``
  dichotomy algorithm, exact vertex-cover baselines, and the
  2-approximation of Proposition 3.3;
* optimal **U-repairs** (minimum-weight cell updates): the tractable cases
  of Section 4, exhaustive search for small instances, and the
  ``2·mlc(Δ)``-approximation of Theorem 4.12;
* the **dichotomy classifier** (Algorithm 2 + the five hardness classes of
  Figure 2 with their fact-wise reduction sources);
* the **Most Probable Database** reduction (Theorem 3.10);
* the paper's hardness constructions (fact-wise reductions, the
  MAX-non-mixed-SAT / triangle-packing / vertex-cover reductions) as
  executable artefacts.

Quickstart::

    >>> from repro import FDSet, Table, optimal_s_repair, u_repair
    >>> fds = FDSet("facility -> city; facility room -> floor")
    >>> table = Table.from_rows(
    ...     ["facility", "room", "floor", "city"],
    ...     [("HQ", "322", 3, "Paris"), ("HQ", "322", 30, "Madrid"),
    ...      ("HQ", "122", 1, "Madrid"), ("Lab1", "B35", 3, "London")],
    ...     weights=[2, 1, 1, 2])
    >>> result = optimal_s_repair(table, fds)
    >>> result.distance
    2.0
"""

from .core import *  # noqa: F401,F403 — the curated core API
from .core import __all__ as _core_all
from .exec import PersistentWorkerPool
from .pipeline import CleaningResult, DirtinessReport, assess, clean
from .session import RepairSession, SessionStats

__version__ = "1.2.0"

__all__ = list(_core_all) + [
    "CleaningResult",
    "DirtinessReport",
    "PersistentWorkerPool",
    "RepairSession",
    "SessionStats",
    "assess",
    "clean",
]
