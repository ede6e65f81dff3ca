"""CEPRSan: runtime invariant sanitizer, race detector, and self-lint.

Three layers share one reporting spine (:class:`Sanitizer` → structured
log + trip counters → :class:`~repro.observability.registry.
MetricsRegistry`):

* **Invariants** (:mod:`repro.sanitize.invariants`) — hot-path checks
  attached to a live engine: ranking order and score-bound soundness,
  matcher run/window coherence, sequencer monotonicity, shared-index
  refcounts, and snapshot round-trips.
* **Concurrency** (:mod:`repro.sanitize.locks`,
  :mod:`repro.sanitize.core`, :mod:`repro.sanitize.aio`) — lock-order
  cycle detection, thread-affinity ownership tracking, and the asyncio
  loop-stall watchdog.
* **Self-lint** (:mod:`repro.sanitize.selflint`) — an AST pass over the
  codebase itself (``cepr lint --self``), emitting CEPR6xx diagnostics.

Everything is **zero-cost when disabled**: instrumentation is attached
only when ``CEPR_SANITIZE`` (or ``--sanitize``) is set, as instance-level
wrappers and tracked locks that plain runs never construct.  The
watchdog is imported from :mod:`repro.sanitize.aio` directly (by the
serving layer) so that the runtime never loads ``asyncio``.
"""

from repro.sanitize.core import (
    ENV_VAR,
    Sanitizer,
    SanitizerError,
    ThreadAffinity,
    disable_sanitizer,
    enable_sanitizer,
    refresh_from_env,
    release_affinity,
    sanitizer_enabled,
    sanitizer_mode,
)
from repro.sanitize.invariants import InvariantChecker, attach_engine_sanitizer
from repro.sanitize.locks import (
    LockOrderGraph,
    TrackedLock,
    default_lock_sanitizer,
    register_lock_metrics,
    tracked_lock,
)
from repro.sanitize.selflint import run_selflint

__all__ = [
    "ENV_VAR",
    "InvariantChecker",
    "LockOrderGraph",
    "Sanitizer",
    "SanitizerError",
    "ThreadAffinity",
    "TrackedLock",
    "attach_engine_sanitizer",
    "default_lock_sanitizer",
    "disable_sanitizer",
    "enable_sanitizer",
    "refresh_from_env",
    "register_lock_metrics",
    "release_affinity",
    "run_selflint",
    "sanitizer_enabled",
    "sanitizer_mode",
    "tracked_lock",
]
