"""Test-suite settings shared by every module."""

from hypothesis import settings

# Every run draws the same examples, and no run replays examples saved by
# an earlier one, so two runs of the suite test the same inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
