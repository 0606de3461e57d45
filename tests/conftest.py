"""One Hypothesis profile for the whole suite: derandomized, so every run
draws the same examples, and without deadlines, whose wall-clock limits
depend on the host.  Tests set only ``max_examples``."""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
