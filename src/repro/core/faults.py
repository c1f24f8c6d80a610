"""Deterministic fault injection at stage boundaries.

Testing a fault-tolerant runner needs *reproducible* failures: "the
screenshot classifier dies on its first two attempts", "community
``pol``'s clustering raises once", "the index checkpoint a reload
reads is corrupted on disk".  :class:`FaultInjector` scripts those
events by *site name* — the runner calls :meth:`FaultInjector.fire` at
every stage boundary (and per-item boundary) it crosses, and armed
faults trigger a fixed number of times, then disarm.

Site naming convention (what the runner fires):

* ``"cluster"`` / ``"annotate"`` / ``"associate"`` /
  ``"screenshot-filter"`` — whole-stage boundaries;
* ``"cluster:pol"`` — one community's clustering (likewise
  ``"annotate:<community>"``);
* ``"screenshot-filter:classifier"`` — one rung of the degradation
  ladder (likewise ``:oracle`` / ``:none``).

A crash at any of these sites is recovered by re-running on the same
content cache (:mod:`repro.core.cache`): stages that finished before
the crash hit, the rest recompute.

The online serving layer (:mod:`repro.service`) fires its own sites, so
one injector can script a whole chaos schedule across batch and serving
paths:

* ``"serve:classify"`` — before every classify attempt inside
  :class:`repro.service.MemeMatchService` (retries re-fire it, so
  ``times=N`` scripts a burst of N failures);
* ``"serve:probe"`` — before a half-open circuit-breaker probe attempt
  (probe attempts fire this *instead of* ``serve:classify``);
* ``"serve:reload"`` — at the start of a hot index reload, with the
  checkpoint path attached, so a ``corrupt`` fault simulates a bad
  checkpoint landing on disk mid-reload.

The supervised parallel executor (:mod:`repro.utils.parallel`) consults
:meth:`FaultInjector.parallel_directive` before every shard attempt:

* ``"parallel:shard"`` / ``"parallel:worker"`` — per shard-attempt
  sites.  ``action="raise"`` faults raise right there in the parent
  (a failing shard kernel); ``action="hang"`` and ``action="kill"``
  return a :class:`repro.utils.parallel.ChaosDirective` the executor
  ships into the worker — a sleep past the shard deadline, or
  ``os._exit`` mid-task (observed as ``BrokenProcessPool``, exactly
  like an OOM-killed worker).

The streaming ingester (:mod:`repro.stream`) consults
:meth:`FaultInjector.stream_directive` at its own sites:

* ``"stream:ingest"`` — before each event batch is appended to the WAL;
* ``"stream:wal"`` — inside the WAL append itself (a ``kill`` here
  leaves a *torn tail*: half a frame reaches disk before the process
  dies);
* ``"stream:compact"`` — at the start of a compaction.

``raise`` faults raise per firing as usual, but ``hang``/``kill``
directives trigger on the fault's *final* armed firing (``times=N``
= the Nth visit): an in-process kill can only happen once, so the
budget counts down to the kill instead of repeating it — which is how
``stream:ingest@2@kill`` scripts "die while appending batch 2".

Faults are exceptions by default; raise :class:`repro.utils.retry.
TransientError` (the default) to exercise the retry path, or any other
exception type to exercise degradation/quarantine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.retry import TransientError

__all__ = [
    "Fault",
    "FaultInjector",
    "SITE_NAMESPACES",
    "STREAM_SITES",
    "corrupt_file",
]

PARALLEL_SITES = ("parallel:shard", "parallel:worker")
# Kept in sync with the sites repro.stream.StreamIngester fires (a
# literal here, not an import: faults must stay import-light and free
# of cycles with the stream package).
STREAM_SITES = ("stream:ingest", "stream:wal", "stream:compact")
# The part before the first ``:`` of every site the code fires (see the
# module docstring); a site outside these namespaces never fires.
SITE_NAMESPACES = (
    "cluster",
    "annotate",
    "associate",
    "screenshot-filter",
    "serve",
    "parallel",
    "stream",
)


def corrupt_file(path: str | Path, *, mode: str = "flip") -> None:
    """Deterministically damage a file on disk.

    ``mode="flip"`` inverts the byte at ``len // 2`` (digest breaks,
    length intact); ``mode="truncate"`` keeps the first ``len // 2``
    bytes.  Both modes **guarantee the stored bytes change**: an empty
    file has nothing to corrupt, so both raise ``ValueError`` rather
    than silently "succeeding" without injecting anything, and a 1-byte
    file truncates to an empty file (a real, detectable truncation —
    the checkpoint loader rejects it as a truncated header).
    """
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if not blob:
        raise ValueError(
            f"cannot corrupt empty file {path}: no bytes to {mode}"
        )
    if mode == "flip":
        middle = len(blob) // 2
        blob[middle] ^= 0xFF
        path.write_bytes(bytes(blob))
    elif mode == "truncate":
        path.write_bytes(bytes(blob[: len(blob) // 2]))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


@dataclass
class Fault:
    """One scripted failure at a named site.

    Attributes
    ----------
    site:
        The boundary name this fault arms (see module docstring).
    error:
        Exception *instance or type* raised when the fault fires.
        Ignored for ``action="corrupt"``.
    times:
        How many firings before the fault disarms (default 1).
    action:
        ``"raise"`` throws ``error``; ``"corrupt"`` damages the file
        path the site passes along (``serve:reload`` only);
        ``"hang"`` / ``"kill"`` script worker-side chaos at the
        ``parallel:*`` sites (see :meth:`FaultInjector.parallel_directive`).
    corrupt_mode:
        Passed to :func:`corrupt_file` for ``action="corrupt"``.
    delay_s:
        Worker sleep for ``action="hang"`` (set it past the shard
        deadline to trigger hang detection).
    """

    site: str
    error: BaseException | type[BaseException] = TransientError
    times: int = 1
    action: str = "raise"
    corrupt_mode: str = "flip"
    delay_s: float = 0.25
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.action not in ("raise", "corrupt", "hang", "kill"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    @property
    def armed(self) -> bool:
        return self.fired < self.times

    def make_error(self) -> BaseException:
        if isinstance(self.error, BaseException):
            return self.error
        return self.error(f"injected fault at {self.site!r}")


class FaultInjector:
    """A scripted set of faults the runner consults at every boundary.

    Examples
    --------
    >>> from repro.utils.retry import TransientError
    >>> injector = FaultInjector([Fault("cluster:pol", TransientError, times=2)])
    >>> injector.fire("cluster:gab")  # unarmed site: no-op
    >>> try:
    ...     injector.fire("cluster:pol")
    ... except TransientError:
    ...     pass
    """

    def __init__(self, faults: list[Fault] | None = None) -> None:
        self.faults = list(faults or [])
        self.log: list[str] = []

    def add(self, fault: Fault) -> "FaultInjector":
        self.faults.append(fault)
        return self

    def fire(self, site: str, *, path: str | Path | None = None) -> None:
        """Trigger any armed fault at ``site``.

        ``path`` carries the file a ``corrupt`` fault damages.
        """
        for fault in self.faults:
            if fault.site != site or not fault.armed:
                continue
            if fault.action in ("hang", "kill"):
                raise ValueError(
                    f"{fault.action!r} fault at {site!r} is a parallel-chaos "
                    "directive; it fires via parallel_directive(), not fire()"
                )
            fault.fired += 1
            self.log.append(site)
            if fault.action == "corrupt":
                if path is None:
                    raise ValueError(
                        f"corrupt fault at {site!r} fired without a file path"
                    )
                corrupt_file(path, mode=fault.corrupt_mode)
                return
            raise fault.make_error()

    def parallel_directive(self, site: str):
        """Chaos hook for supervised parallel execution.

        The executor calls this before every shard attempt with
        ``"parallel:shard"`` then ``"parallel:worker"``.  A ``raise``
        fault raises here in the parent; ``hang``/``kill`` faults
        return a :class:`repro.utils.parallel.ChaosDirective` for the
        executor to ship into the worker.  Unarmed sites return
        ``None``.  The bound firing count (``times``) decrements per
        shard attempt, so e.g. ``times=2`` poisons exactly two attempts
        and then the fan-out heals.
        """
        from repro.utils.parallel import ChaosDirective

        if site not in PARALLEL_SITES:
            raise ValueError(
                f"unknown parallel chaos site {site!r}; "
                f"expected one of {PARALLEL_SITES}"
            )
        for fault in self.faults:
            if fault.site != site or not fault.armed:
                continue
            fault.fired += 1
            self.log.append(site)
            if fault.action in ("hang", "kill"):
                return ChaosDirective(fault.action, delay_s=fault.delay_s)
            if fault.action == "raise":
                raise fault.make_error()
            raise ValueError(
                f"{fault.action!r} fault cannot fire at parallel site {site!r}"
            )
        return None

    def stream_directive(self, site: str):
        """Chaos hook for the streaming ingester (:mod:`repro.stream`).

        Same shape as :meth:`parallel_directive` — ``raise`` faults
        raise here, ``hang``/``kill`` faults come back as a
        :class:`repro.utils.parallel.ChaosDirective` — with one
        difference: hang/kill directives trigger on the fault's *final*
        armed firing.  The ingester is a single process, so a kill can
        only happen once; ``times=N`` therefore means "trigger on the
        Nth visit to this site", letting drills target e.g. the second
        WAL batch instead of always dying on the first.  Visits before
        the trigger still consume the budget but return ``None``.
        """
        from repro.utils.parallel import ChaosDirective

        if site not in STREAM_SITES:
            raise ValueError(
                f"unknown stream chaos site {site!r}; "
                f"expected one of {STREAM_SITES}"
            )
        for fault in self.faults:
            if fault.site != site or not fault.armed:
                continue
            fault.fired += 1
            if fault.action == "raise":
                self.log.append(site)
                raise fault.make_error()
            if fault.action in ("hang", "kill"):
                if fault.armed:
                    continue  # not the final armed firing yet
                self.log.append(site)
                return ChaosDirective(fault.action, delay_s=fault.delay_s)
            raise ValueError(
                f"{fault.action!r} fault cannot fire at stream site {site!r}"
            )
        return None

    def fired_sites(self) -> list[str]:
        """Every site that fired, in order (for test assertions)."""
        return list(self.log)
