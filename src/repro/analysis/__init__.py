"""Static analysis over plans and over the engine itself.

The paper's correctness story rests on a compile-time discipline: every
operator's output carries tuple-uncertainty (``u#``) and
attribute-uncertainty (``uA``) tags, and the §4.2 delta-update state
rules are *derived* from those tags. This package checks — before a run
starts — that a compiled plan's tag flow and state rules are mutually
consistent, and that the operator implementations still honor the
contracts the executor assumes:

* :mod:`repro.analysis.typecheck` — the plan-level uncertainty
  typechecker: re-infers the Appendix-A tags bottom-up over the logical
  plan and cross-checks them against what the compiler actually emitted
  (operator placement, declared state entries, ND-cache presence, block
  production/consumption);
* :mod:`repro.analysis.lint` — an ``ast``-based lint suite over the
  engine's own source, enforcing the executor contracts (no input
  mutation in ``process``, between-batch state only in named
  :class:`~repro.state.StateStore` entries, block writes only by the
  declared producer, no banned nondeterminism in batch-pure paths);
* :mod:`repro.analysis.verify` — the runtime contract verifier behind
  ``--verify`` / ``OnlineConfig(verify=True)``, which re-checks the
  static claims dynamically (input fingerprints around ``process``,
  state-key snapshots per batch);
* :mod:`repro.analysis.races` — the plan-level race detector behind
  ``iolap analyze --races``: derives a read/write effect summary per
  compiled execution unit (store entries, block edges, carried
  sidecars) and checks the summaries against the units' declared
  produce/consume order (RACE0xx/RACE2xx);
* :mod:`repro.analysis.sanitize` — the TSan-style runtime buffer
  sanitizer behind ``--sanitize`` / ``OnlineConfig(sanitize=True)``:
  freezes zero-copy buffers during ``process`` and tracks aliased-view
  provenance (SAN0xx).

Everything reports through :class:`AnalysisDiagnostic`: a structured
(rule id, location, message, fix hint) record instead of a runtime
surprise.
"""

from repro.analysis.diagnostics import AnalysisDiagnostic, AnalysisReport

__all__ = [
    "AnalysisDiagnostic",
    "AnalysisReport",
    "analyze_query",
    "analyze_query_races",
    "check_plan",
    "check_plan_races",
    "run_lint",
]


def __getattr__(name: str) -> object:
    # Lazy re-exports: repro.core imports the verifier and sanitizer from
    # this package, so the package __init__ must not import repro.core
    # back eagerly.
    if name in ("check_plan", "analyze_query"):
        from repro.analysis import typecheck

        return getattr(typecheck, name)
    if name in ("check_plan_races", "analyze_query_races"):
        from repro.analysis import races

        return getattr(races, name)
    if name == "run_lint":
        from repro.analysis.lint import run_lint

        return run_lint
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
