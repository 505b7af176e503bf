"""Test-suite settings shared by every module."""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Every run draws the same examples, and no run replays examples saved by
# an earlier one, so two runs of the suite test the same inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# hypothesis caches the constants it harvests from the source under its
# home directory whatever the database setting; a temporary home keeps
# that cache out of the checkout
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
