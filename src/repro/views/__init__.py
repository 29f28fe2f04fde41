"""Answering one-shot queries from materialised views.

:class:`ViewCatalog` (:mod:`.catalog`), wired through
:meth:`repro.api.QueryEngine.evaluate`, indexes every live view's FRA root
by the canonical fingerprint key.  A read whose plan is a *listing read*
over a live root — the root itself, or the root under at most one σ,
identity π and δ, an optional ``ORDER BY`` on bare columns and
``SKIP``/``LIMIT`` — is served as a slice of a listing the root's
production node maintains (:class:`.catalog.ListingRead`); every other
read is recomputed.
"""

from .catalog import AnswerStats, ViewCatalog

__all__ = ["AnswerStats", "ViewCatalog"]
