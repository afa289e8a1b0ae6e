"""Hypothesis profiles for the test tree.

The tier-1 run is deterministic: every property test draws the same
examples on every run (``derandomize``) and never replays failures
recorded by an earlier run (no example database), so a red run always
means the code changed.  Open-ended exploration lives in the ``fuzz``
profile (``make test-fuzz``): random draws, ``FUZZ_FACTOR`` times each
test's example budget, and a local example database that replays
whatever it finds.
"""

from hypothesis import settings

#: How many times its tier-1 example budget each property test draws
#: under the ``fuzz`` profile.
FUZZ_FACTOR = 10

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False)


def _profile(config) -> str:
    return config.getoption("hypothesis_profile", None) or "tier1"


def pytest_configure(config):
    # ``--hypothesis-profile`` (e.g. ``make test-fuzz``) wins; otherwise
    # every run uses the deterministic tier-1 profile.
    settings.load_profile(_profile(config))


def pytest_collection_modifyitems(config, items):
    if _profile(config) != "fuzz":
        return
    # Most property tests pin their own ``max_examples``, which a
    # profile cannot raise; scale every test's budget instead.
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)
        pinned = getattr(test, "_hypothesis_internal_use_settings", None)
        if pinned is not None:
            test._hypothesis_internal_use_settings = settings(
                pinned, max_examples=pinned.max_examples * FUZZ_FACTOR
            )
