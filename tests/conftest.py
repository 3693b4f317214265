import sys
import warnings

import pytest

# When a hypothesis test fails, hypothesis's pytest plugin imports this module
# to suggest a patch, and its libcst import raises a DeprecationWarning, which
# pyproject's filters make an error: pytest then stops with INTERNALERROR and
# the tests after the failure never run.  Importing it once here, with that
# warning ignored, leaves the failure to be reported as one.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from helpers import worked_example
from transopt import TransportPlan


@pytest.fixture
def worked_instance():
    return worked_example()


@pytest.fixture
def worked_plan():
    # the optimal shipment of the worked example: x_13=3, x_21=3, x_24=2,
    # x_32=2, x_33=3, x_34=2 in 1-based notation
    return TransportPlan(
        {(0, 2): 3, (1, 0): 3, (1, 3): 2, (2, 1): 2, (2, 2): 3, (2, 3): 2}
    )


@pytest.fixture
def int_limit_off():
    """The interpreter's own int/str digit limit switched off, as
    PYTHONINTMAXSTRDIGITS=0 does, for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)
