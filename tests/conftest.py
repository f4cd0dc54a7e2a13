import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"the test left a child process behind (waitpid gave pid {pid}, status {status})")


@pytest.fixture
def split_into(monkeypatch):
    """``split_into(k)``: from then on every exact search and Monte Carlo run,
    at any N, is dealt into k shares (fewer where it has fewer pieces), by the
    one share rule ``coding._share_count`` with its inputs patched."""
    from permcode import coding

    def split(shares: int) -> None:
        monkeypatch.setattr(coding, "SPLIT_FROM_N", 1)
        monkeypatch.setattr(coding, "_usable_cpus", lambda: shares)

    return split
