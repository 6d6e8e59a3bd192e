"""reprolint — project-specific static analysis for the VDCE reproduction.

The repository's headline properties — byte-identical seeded chaos runs
and incremental scheduling that follows every repository change through
one delta journal — are invariants that one stray ``random`` call or
unordered-``set`` iteration silently breaks.  reprolint is an AST-based
linter that checks the code against the project's *own* rules, the way
a generic linter never could:

* **DET001** — nondeterminism hazards in simulation, scheduling and
  task-library code (unordered-set iteration, ``id()``/``hash()``-derived
  values, unseeded ``random``/``numpy.random`` use bypassing
  ``repro.util.rng``, argsorts without ``kind="stable"``);
* **DET002** — wall-clock leaks (``time.time`` & friends) in simulated
  code, where only ``env.now`` may be consulted;
* **DET003** — same-tick scheduling without a tie-break (``call_later``
  with a literal zero delay, or spawning inside a loop over an
  unordered set);
* **ISO001** — cross-site reach-through mutations that bypass the
  ``Network`` message path;
* **INV002** — the delta-publication contract: every data mutation in a
  repository database must publish a ``_notify`` delta event, and
  ``DeltaTracker`` journal mutations must bump the ``generation``
  cursor stamp;
* **SIM001** — simulation-safety: process generators must not call
  blocking/real-I/O APIs or share state through ``global``/``nonlocal``;
* **PERF001** — every trace, metric or span record under an
  ``obs.enabled`` guard, and ``__slots__`` parity on the hot paths;
* **PERF002** — no process spawned only to be awaited
  (``yield env.process(gen)``): run the generator with ``yield from``.

Run ``python -m tools.reprolint src/ tests/`` from the repository root.
Suppress a finding with ``# reprolint: disable=RULE  -- justification``
on (or immediately above) the offending line; see
``docs/static-analysis.md`` for the rule catalogue and suppression
policy.
"""

from tools.reprolint.core import Checker, Finding, LintRunner, iter_python_files

__all__ = ["Checker", "Finding", "LintRunner", "iter_python_files"]
