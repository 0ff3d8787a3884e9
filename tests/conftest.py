"""Fixtures shared by the test files; ``helpers.py`` holds the rest of what they share."""

import pytest

pytest.register_assert_rewrite("helpers")

import helpers  # noqa: E402  (after the rewrite hook, so its asserts report their values)

vacuum_seed = pytest.fixture(scope="module")(helpers.vacuum_seed)
