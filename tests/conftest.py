"""Shared pytest set-up.

pyproject.toml turns every warning into an error.  When a hypothesis test
fails, hypothesis's pytest plugin imports ``hypothesis.extra._patching``
to write a patch of the failing example.  That imports libcst, whose
import of mypy_extensions raises a DeprecationWarning inside the test's
warning filter, and pytest stops with an INTERNALERROR.  Importing the
module here once, with that warning ignored, keeps a failing property
test a plain test failure.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patch
        pass
