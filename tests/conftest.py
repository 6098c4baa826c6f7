"""Suite-wide settings: no bytecode cache, and one hypothesis profile.

A test run writes no ``__pycache__`` under ``src/``: a cache left there would
make a later fresh import of the package (the benchmark's ``setup_s``) read
compiled files instead of compiling the sources.

Property tests draw the same examples on every run (``derandomize``), keep
no example database, and stop at a fixed number of examples, so the suite
stays deterministic and its cost bounded.
"""

import sys

from hypothesis import settings

sys.dont_write_bytecode = True

settings.register_profile(
    "suite", derandomize=True, deadline=None, max_examples=30, database=None
)
settings.load_profile("suite")
