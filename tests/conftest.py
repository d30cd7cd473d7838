"""Hypothesis profiles.

Under ``CI`` (set by GitHub Actions) properties draw the same examples on
every run, so a property that catches a defect in some draws and not in
others fails or passes alike on every push, and a failure prints the blob
that reproduces it. Local runs keep the default random profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
