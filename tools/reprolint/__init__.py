"""reprolint — project-specific static analysis for the VDCE reproduction.

The repository's headline properties — byte-identical seeded chaos runs
and a memoized ``Predict()`` invalidated by version stamps — are
invariants that one stray ``random`` call or unordered-``set`` iteration
silently breaks.  reprolint is an AST-based linter that checks the code
against the project's *own* rules, the way a generic linter never could:

* **DET001** — nondeterminism hazards in simulation/scheduling code
  (unordered-set iteration, ``id()``/``hash()``-derived values, unseeded
  ``random``/``numpy.random`` use bypassing ``repro.util.rng``);
* **DET002** — wall-clock leaks (``time.time`` & friends) in simulated
  code, where only ``env.now`` may be consulted;
* **INV001** — the cache-invalidation contract: methods of ``@versioned``
  classes that mutate data must bump the version stamp;
* **INV002** — the delta-publication contract: repository version bumps
  must publish a ``_notify`` delta event, and ``DeltaTracker`` journal
  mutations must bump the ``generation`` cursor stamp;
* **SIM001** — simulation-safety: process generators must not call
  blocking/real-I/O APIs or share state through ``global``/``nonlocal``;
* **PERF001** — every trace, metric or span record under an
  ``obs.enabled`` guard, and ``__slots__`` parity on the hot paths.

Run ``python -m tools.reprolint src/ tests/`` from the repository root.
Suppress a finding with ``# reprolint: disable=RULE  -- justification``
on (or immediately above) the offending line; see
``docs/static-analysis.md`` for the rule catalogue and suppression
policy.
"""

from tools.reprolint.core import Checker, Finding, LintRunner, iter_python_files

__all__ = ["Checker", "Finding", "LintRunner", "iter_python_files"]
