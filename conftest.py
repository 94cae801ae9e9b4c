"""Test-session set-up shared by every test directory.

When a hypothesis test fails, hypothesis' pytest plugin imports ``libcst``
to suggest a patch.  Some ``libcst`` releases import ``mypy_extensions``,
which warns with ``DeprecationWarning`` on import; under the project's
``filterwarnings = ["error"]`` that warning becomes an exception the plugin
does not catch, and pytest stops with ``INTERNALERROR`` after the first
failing hypothesis test.  Importing ``libcst`` once here, with that warning
ignored, leaves the plugin's later import a cached no-op.  The setting
itself stays ``error`` for the code under test.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
