"""Setup shared by every test module.

pyproject.toml turns DeprecationWarning into an error. When a hypothesis
test fails, hypothesis's pytest plugin imports hypothesis.extra._patching to
write a patch; that module imports libcst, whose import warns, and the
plugin catches only ImportError, so pytest would stop with INTERNALERROR and
report no later test. The module is imported here once, with that warning
ignored, so the plugin finds it loaded. No warning filter of the suite
changes.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis or no libcst: the plugin writes no patch
        pass
