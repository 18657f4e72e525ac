"""One hypothesis profile for the whole suite.

derandomize draws the same examples on every run, so a run of the suite is
reproducible; database=None keeps no example store between runs, and
deadline=None leaves timing to the suite rather than to each example.
"""

from hypothesis import settings

settings.register_profile("padamp", deadline=None, database=None, derandomize=True)
settings.load_profile("padamp")
