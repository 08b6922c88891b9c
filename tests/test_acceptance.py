"""Acceptance checks: one test per release criterion.

The criteria themselves are defined once, in `modvar.verify`, which also
backs `modvar verify`.  Each case here runs one of them, prints its record
so a red run still shows how far off the build is, and asserts that it
passed.
"""

import pytest

from modvar import verify


@pytest.mark.parametrize("check", verify.CRITERIA, ids=[check.id for check in verify.CRITERIA])
def test_criterion(check):
    result = check()
    print(verify.format_result(result))
    assert result.passed, result
