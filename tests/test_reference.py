"""The cases of COMMANDS in tests/reference.py, in process, and every
refusal case of the table once more under python -O."""

import pytest

import reference


@pytest.mark.parametrize("name", reference.COMMANDS)
def test_case(name):
    reference.check(name)


def test_refusals_under_python_O():
    failed = [report for report in reference.optimized().values() if report]
    assert not failed, "\n".join(failed)
