"""One hypothesis profile for every property test.

No deadline, so a property does not fail because a loaded machine was
slow on one example, and the failing example's blob is printed, so a
failure can be replayed with `@reproduce_failure`.
"""

from hypothesis import settings

settings.register_profile("qtrack", deadline=None, print_blob=True)
settings.load_profile("qtrack")
