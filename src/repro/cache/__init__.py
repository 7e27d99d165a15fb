"""Content-addressed verdict & algebra cache (the ``cip`` artifact store).

The differential harnesses establish that every verdict in this
codebase — language equality/containment, bisimilarity,
receptiveness, behavioural properties, ``cip bench`` cells — is a pure
function of net *content*: engines and worker counts change how fast
an answer arrives, never what it is.  This package turns that
invariance into reuse, and stores only what is cheaper to load than to
recompute:

* :mod:`repro.cache.content` — canonical content hashes for nets and
  STGs (stable across the astg/TINA/PNML/JSON load formats) plus
  provenance keys for algebra results (operator + operand hashes);
* :mod:`repro.cache.store` — the persistent artifact store: atomic
  write-then-rename JSON files keyed by ``(content_hash, kind,
  schema_version)``, corruption always degrades to a miss;
* :mod:`repro.cache.verdicts` — the budget-monotonic verdict memo
  (kind ``verdict``): a verdict proven under state budget ``B`` is
  served for any request with budget ``B' >= B``; an INCONCLUSIVE
  recorded under ``B`` is reusable only at exactly ``B`` (its
  witnesses are budget-dependent);
* :mod:`repro.cache.derived` — ``hide`` and ``trim`` results (kind
  ``derived-net``).

Compiled nets are not stored: lowering a net is cheaper than loading a
stored lowering.

The library default is *no caching*: nothing activates the store unless
a caller opts in (:func:`repro.cache.store.activated`, the CLI's
``--cache-dir``/``--no-cache`` flags, or the ``CIP_CACHE_DIR`` /
``CIP_NO_CACHE`` environment variables).
"""

from repro.cache.content import (
    derived_key,
    net_content_hash,
    semantic_key,
    stg_content_hash,
)
from repro.cache.store import (
    ArtifactStore,
    activated,
    active_store,
    default_cache_dir,
)

__all__ = [
    "ArtifactStore",
    "activated",
    "active_store",
    "default_cache_dir",
    "derived_key",
    "net_content_hash",
    "semantic_key",
    "stg_content_hash",
]
