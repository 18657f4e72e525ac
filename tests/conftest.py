"""The numeric pin and one hypothesis profile for the whole suite.

numeric_pin is imported first, before anything loads numpy, so the byte
gates see the code paths they were recorded with. derandomize draws the same
examples on every run, so a run of the suite is reproducible; database=None
keeps no example store between runs, and deadline=None leaves timing to the
suite rather than to each example.
"""

import numeric_pin  # noqa: F401  (sets the environment before numpy loads)

from hypothesis import settings

settings.register_profile("padamp", deadline=None, database=None, derandomize=True)
settings.load_profile("padamp")
