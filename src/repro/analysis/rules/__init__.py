"""The repro-lint rule set.

Importing this package registers every rule with the global registry
in :mod:`repro.analysis.core`.  Each module holds one rule, named
after the contract it enforces:

* :mod:`.wallclock` — ``wall-clock``: no direct wall-clock reads or
  sleeps outside ``common/clock.py``;
* :mod:`.randomness` — ``unseeded-random``: no module-level
  ``random.*`` calls or unseeded ``random.Random()``;
* :mod:`.ordering` — ``set-iteration``: no iteration-order-sensitive
  use of sets on fan-out/serialization paths;
* :mod:`.swallowed` — ``swallowed-transport-error``: no silently
  discarded transport failures;
* :mod:`.retry_backoff` — ``retry-without-backoff``: retry loops must
  back off (or use ``call_with_retries``);
* :mod:`.retry_amplification` — ``retry-amplification``: no retrying
  context nested inside another (budgets multiply under overload);
* :mod:`.durability` — ``durability-unsynced-ack``: every path from a
  WAL/disk write to a return, ack, or watermark advance passes an
  fsync (flow-sensitive typestate; acked ⇒ fsynced ⇒ recoverable);
* :mod:`.breaker` — ``breaker-unrecorded-outcome``: an admitted
  ``CircuitBreaker.allow()`` reaches ``record_success`` or
  ``record_failure`` on every normal path;
* :mod:`.layering` — ``layering-contract``: imports follow the
  committed layer map in :mod:`repro.analysis.architecture`;
* :mod:`.unbounded_rpc` — ``unbounded-rpc``: a held deadline bounds
  every RPC the function reaches, its own and transitive ones
  (interprocedural, call-chain findings);
* :mod:`.escaped_error` — ``escaped-internal-error``: only taxonomy
  errors escape the package-exported public API (interprocedural);
* :mod:`.atomicity` — ``atomicity-violation``,
  ``non-atomic-multi-write``, ``yield-in-atomic-section``: multi-step
  shared-state updates must not straddle a yield point (RPC, sleep
  or fsync, in the function or anywhere down the call chain) without
  revalidation, a journal record, or an ``@atomic_section`` proof.

That is fourteen rules.  The durability and breaker rules run on the
control-flow graphs built by :mod:`repro.analysis.flow` (via
:mod:`repro.analysis.protocol`) rather than on per-line syntax; the
last three modules hold :class:`~repro.analysis.core.ProjectRule`\\ s
consuming the repo-wide call graph (:mod:`repro.analysis.callgraph`)
and effect summaries (:mod:`repro.analysis.summaries`), and the
atomicity rules walk the CFG as well.
"""

from repro.analysis.rules import (  # noqa: F401
    atomicity,
    breaker,
    durability,
    escaped_error,
    layering,
    ordering,
    randomness,
    retry_amplification,
    retry_backoff,
    swallowed,
    unbounded_rpc,
    wallclock,
)
