"""Test model backends that raise on one planted word.

``PoisonTagger`` raises from ``spans`` on a sentence holding ``POISON``,
``PoisonScorer`` from ``score`` on a tagged text holding it. Neither has
a batch method, so the page stage's one batched call over a slice
(derived as a loop) raises for the whole slice, and the stage must
re-run that slice page by page. Selected through the ``module:Class``
backend seam, e.g. ``KGConfig(ner_backend="tests.poison_backends:PoisonTagger")``.
"""

from __future__ import annotations

from finance_sc_relations_ray.stages.ner import GazetteerTagger
from finance_sc_relations_ray.stages.scoring import RuleReScorer

POISON = "Zanzibar"


class PoisonedInput(RuntimeError):
    """Raised by the poisoned backends."""


class PoisonTagger(GazetteerTagger):
    def spans(self, sent: str) -> list[dict]:
        if POISON in sent:
            raise PoisonedInput(sent)
        return super().spans(sent)


class PoisonScorer(RuleReScorer):
    def score(self, tagged: str) -> list[float]:
        if POISON in tagged:
            raise PoisonedInput(tagged)
        return super().score(tagged)
