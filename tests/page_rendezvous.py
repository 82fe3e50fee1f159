"""A test NER backend that shows whether two page-stage calls overlap.

The first ``spans`` call in each worker process waits on a two-party
barrier held by a named Ray actor. Two calls can only meet there if the
page stage runs in two processes at once, so the barrier's ``met`` flag
answers "did the page stage run concurrently?" without any wall-clock
bound. The backend is selected through the ``module:Class`` seam
(``KGConfig(ner_backend="tests.page_rendezvous:BuildRendezvousTagger")``),
which imports this module inside the workers; run pytest from the
repository root so that ``tests`` is importable there.
"""

from __future__ import annotations

import asyncio
import os

import ray

from finance_sc_relations_ray.stages.ner import GazetteerTagger

WAIT_S = 20.0

# barrier names this process has already waited on
_WAITED: set[str] = set()


@ray.remote(num_cpus=0)
class TwoPartyBarrier:
    """A barrier for two processes. Like ``threading.Barrier``, a wait
    that times out breaks it, and every later wait returns at once, so a
    plan that never overlaps its page calls costs one timeout, not one
    per worker process."""

    def __init__(self):
        self._pids: set[int] = set()
        self._met = asyncio.Event()
        self._broken = False

    async def wait(self, pid: int, timeout: float) -> bool:
        if not self._broken:
            self._pids.add(pid)
            if len(self._pids) >= 2:
                self._met.set()
            try:
                await asyncio.wait_for(self._met.wait(), timeout)
            except asyncio.TimeoutError:
                self._broken = True
        return self._met.is_set()

    async def met(self) -> bool:
        return self._met.is_set()


class _RendezvousTagger(GazetteerTagger):
    """The gazetteer tagger, plus one barrier wait per process."""

    BARRIER = ""

    def spans(self, sent: str) -> list[dict]:
        if self.BARRIER not in _WAITED:
            _WAITED.add(self.BARRIER)
            barrier = ray.get_actor(self.BARRIER)
            ray.get(barrier.wait.remote(os.getpid(), WAIT_S))
        return super().spans(sent)


class BuildRendezvousTagger(_RendezvousTagger):
    BARRIER = "build-page-rendezvous"


class CrawlRendezvousTagger(_RendezvousTagger):
    BARRIER = "crawl-page-rendezvous"
