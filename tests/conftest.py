from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from ars.parser import parse_frame

E1_TEXT = """\
vars x y z
field X1 = d/dx
field X2 = x d/dy
field X3 = y^2 d/dz
"""

E2_TEXT = """\
vars x y z w
field X1 = d/dx
field X2 = d/dy + x d/dz
field X3 = y d/dw
field X4 = x d/dz + 1/2 y^2 d/dw
"""

E3_TEXT = """\
vars x y z w t
field X1 = d/dx
field X2 = d/dy + x d/dz + w d/dt
field X3 = d/dw + x d/dt
field X4 = x d/dy + 1/2 x^2 d/dz
field X5 = y d/dx + 1/2 y^2 d/dz
"""

# step-2 of the approximation has to mix the second field with the first,
# leaving the Grushin frame plus a recorded invariant offset
AFFINE_TEXT = """\
vars x y
field X1 = d/dx
field X2 = d/dx + x d/dy
"""

# last field differs from the fourth by terms of positive order only, so
# both order-0 components coincide and the approximating set degenerates
DEGENERATE_TEXT = """\
vars x y z w t
field X1 = d/dx
field X2 = d/dy + x d/dz + w d/dt
field X3 = d/dw + x d/dt
field X4 = x d/dy + 1/2 x^2 d/dz
field X5 = x d/dy + 1/2 x^2 d/dz + z^2 d/dt
"""

# both coordinates have order one while the flag needs a weight-2 direction
NOT_PRIVILEGED_TEXT = """\
vars x y
field X1 = d/dx + d/dy
field X2 = x d/dy
"""

# the span of all brackets never leaves the d/dx line
RANK_FAIL_TEXT = """\
vars x y
field X1 = d/dx
field X2 = x d/dx
"""

GRUSHIN_TEXT = """\
vars x y
field X1 = d/dx
field X2 = x d/dy
"""

TANGENTIAL_TEXT = """\
vars x y
field X1 = d/dx
field X2 = y d/dy - x^2 d/dy
"""


@pytest.fixture(scope="session")
def e1_doc():
    return parse_frame(E1_TEXT)


@pytest.fixture(scope="session")
def e2_doc():
    return parse_frame(E2_TEXT)


@pytest.fixture(scope="session")
def e3_doc():
    return parse_frame(E3_TEXT)


@pytest.fixture(scope="session")
def e1_frame(e1_doc):
    return e1_doc.to_frame()


@pytest.fixture(scope="session")
def e2_frame(e2_doc):
    return e2_doc.to_frame()


@pytest.fixture(scope="session")
def e3_frame(e3_doc):
    return e3_doc.to_frame()


@pytest.fixture(scope="session")
def affine_frame():
    return parse_frame(AFFINE_TEXT).to_frame()


@pytest.fixture(scope="session")
def degenerate_frame():
    return parse_frame(DEGENERATE_TEXT).to_frame()


@pytest.fixture(scope="session")
def grushin_frame():
    return parse_frame(GRUSHIN_TEXT).to_frame()


@pytest.fixture(scope="session")
def tangential_frame():
    return parse_frame(TANGENTIAL_TEXT).to_frame()


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError after ``seconds`` of wall time, so a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
