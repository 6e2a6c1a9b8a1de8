"""Every Hypothesis property draws the same examples on every machine and on
every run: the examples derive from the test itself, not from a random seed
or from a database of earlier failures."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
