import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Every property test draws the same examples on every run, with no deadline
# and no example database, so that a run depends on the code alone.
settings.register_profile("virtcont", derandomize=True, deadline=None,
                          database=None, max_examples=100)
settings.load_profile("virtcont")
