"""Request coalescing: identical in-flight requests share one compute.

The characterization cache already makes *sequential* repeats free; a
server additionally sees *concurrent* repeats — eight clients asking
for the same sweep before the first computation lands.  Without
coalescing each would miss the cache and compute independently.  The
coalescer keys every computable request on its content fingerprint
(:class:`~repro.explore.sweep.SweepPlan.fingerprint`, an estimate
cache key, ...) and parks duplicate arrivals on the first request's
future, so N identical concurrent requests cost exactly one
computation and N identical replies.

Failure is shared too: if the one computation raises, every waiter
sees the same exception — retrying is the client's decision, and the
failed key is removed immediately so a retry computes fresh.

The coalescer keeps no counts: the server records each request as
computed or coalesced (``serve.computed``/``serve.coalesced``) from
:meth:`RequestCoalescer.is_inflight`, which :meth:`RequestCoalescer.run`
matches exactly because no ``await`` separates the two tests.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Optional


class RequestCoalescer:
    """Single-flight execution keyed on request fingerprints.

    Must only be used from one event loop (the server's); the heavy
    compute itself runs wherever the supplied thunk puts it (the
    server's thread pool via ``run_in_executor``).
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}

    def is_inflight(self, key: Optional[str]) -> bool:
        """Whether a computation for ``key`` is currently running —
        the signal the server uses to tag a request as coalesced in
        its per-request stats."""
        return key is not None and key in self._inflight

    async def run(self, key: Optional[str],
                  compute: Callable[[], Awaitable[Any]]) -> Any:
        """Await ``compute()`` once per concurrent ``key``.

        ``key=None`` means "never coalesce" (stats, fetch, ping — the
        cheap or identity-bearing requests) and simply awaits the
        thunk.  A waiter being cancelled never cancels the shared
        computation: other waiters still get their result.
        """
        if key is None:
            return await compute()
        existing = self._inflight.get(key)
        if existing is not None:
            # shield: cancelling THIS waiter must not kill the shared
            # future the computing task will complete.
            return await asyncio.shield(existing)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        self._inflight[key] = future
        try:
            result = await compute()
        except BaseException as exc:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(exc)
                # Mark retrieved so a waiterless failure never logs the
                # "exception was never retrieved" warning; waiters that
                # do exist still receive it through await.
                future.exception()
            raise
        else:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(result)
            return result
