import sys
from pathlib import Path

import pytest
from hypothesis import settings

TESTS_DIR = Path(__file__).parent
REPO_DIR = TESTS_DIR.parent

sys.path.insert(0, str(TESTS_DIR))  # makes `oracles` importable

# every property test draws the same examples on every run, keeps none
# between runs and has no time limit per example, so that its outcome does
# not depend on the run before it or on the machine's speed; a test's own
# settings give its number of examples
settings.register_profile("tagmon", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tagmon")


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return REPO_DIR / "scenarios"


@pytest.fixture
def digit_limit():
    """``int``'s digit limit lowered to its least, 640, and put back after
    the test."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(before)
