"""Hypothesis profiles, and the patch printer imported once up front.

Under ``CI`` (set by GitHub Actions) properties draw the same examples on
every run, so a property that catches a defect in some draws and not in
others fails or passes alike on every push, and a failure prints the blob
that reproduces it. Local runs keep the default random profile.

A failing property makes hypothesis import its patch printer, which
imports ``libcst``; some ``libcst`` releases warn on import (a
``mypy_extensions`` DeprecationWarning), and under the suite's
``filterwarnings = ["error"]`` that warning would end the whole pytest run
with INTERNALERROR. Importing it here with that warning ignored leaves
it cached, so a failing property is reported as one failure.
"""

import os
import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
