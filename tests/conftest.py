"""Suite-wide settings: one hypothesis profile, loaded for every run.

Property tests draw the same examples on every run (``derandomize``), keep
no example database, and stop at a fixed number of examples, so the suite
stays deterministic and its cost bounded.
"""

from hypothesis import settings

settings.register_profile(
    "suite", derandomize=True, deadline=None, max_examples=30, database=None
)
settings.load_profile("suite")
