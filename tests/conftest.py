"""Shared fixtures for the lvmut tests."""
import pytest

from lvmut import linalg


@pytest.fixture(autouse=True)
def _empty_eigh_memo():
    """Start every test with an empty eigh memo, so a spy on np.linalg or a
    patched kernel sees the same calls whatever ran before."""
    linalg._EIGH_MEMO.clear()
