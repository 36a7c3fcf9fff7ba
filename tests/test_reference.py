"""The cases of COMMANDS and ARGPARSE in tests/reference.py, in process,
and every refusal case of the table once more under python -O. The
records from many starts (STARTS), about 15 s more, run only through
`python tests/reference.py`, a CI step."""

import pytest

import reference


@pytest.mark.parametrize("name", [*reference.COMMANDS, *reference.ARGPARSE])
def test_case(name):
    reference.check(name)


def test_refusals_under_python_O():
    failed = [report for report in reference.optimized().values() if report]
    assert not failed, "\n".join(failed)
