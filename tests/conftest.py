"""Session setup shared by every test module."""

import warnings

# ``tests/test_conftest.py`` runs pytest sessions of its own
pytest_plugins = ["pytester"]

# A failing ``@given`` test makes Hypothesis's pytest plugin import
# ``hypothesis.extra._patching`` to print a patch.  Where libcst is
# installed, that import warns through ``mypy_extensions.TypedDict``, and
# ``filterwarnings = ["error"]`` would turn the warning into an error in
# the plugin's report hook, ending the session there.  Importing it once
# here, with only that DeprecationWarning ignored, keeps every other
# warning an error; without libcst the plugin's own import fails quietly.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
