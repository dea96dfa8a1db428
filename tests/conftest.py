"""Shared test setup: the one hypothesis profile of the property tests."""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis keeps its files under ./.hypothesis unless told otherwise.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "ristx-hypothesis")

# The same examples on every run, none stored between runs, and no
# per-example deadline (a sweep example takes tens of milliseconds).
settings.register_profile("ristx", derandomize=True, database=None, deadline=None)
settings.load_profile("ristx")
