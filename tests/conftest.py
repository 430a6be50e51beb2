"""Shared fixtures for the tier-1 suite."""

import pytest


@pytest.fixture(scope="module")
def warm_worker_pipeline():
    """One candidate pipeline for every campaign a test module runs.

    ``run_campaign`` releases its in-process pipeline (and formula cache)
    when it returns.  Modules that kill and resume the same small campaign
    dozens of times use this fixture to keep one warm pipeline across
    campaigns instead; caches change speed, never verdicts.
    """
    from repro.fuzz import campaign
    from repro.placement.pipeline import ExpressoPipeline
    from repro.smt.cache import FormulaCache

    shared = ExpressoPipeline(cache=FormulaCache())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "_worker_pipeline", lambda: shared)
        yield shared
