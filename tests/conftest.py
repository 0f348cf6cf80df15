import sys

import numpy as np
import pytest

from rhjacobi import (ChebKind, HExpScale, HPoly, HProduct, HRational, SolveContext,
                      WeightSpec, build_green, build_hsystem)

SEED = 20240817


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def spec_u():
    return WeightSpec.single(ChebKind.U)


@pytest.fixture(scope="session")
def spec_two_band():
    return WeightSpec.build([(-1.8, -1.0), (2.0, 3.0)], ["T", "T"])


@pytest.fixture(scope="session")
def spec_genus3():
    # Four bands of four kinds, so column 0 takes every flipped kernel basis
    # (U, T, W, V); at small n every circle carries a jump.
    bands = [(-3.0, -2.2), (-1.5, -0.6), (0.5, 1.3), (2.0, 3.0)]
    h = [HPoly((2.0, 0.5)), HExpScale(0.3), HPoly((1.0, 0.0, 0.2)), HExpScale(-0.2, 1.0)]
    return WeightSpec.build(bands, "TUVW", h)


@pytest.fixture(scope="session")
def spec_symmetric():
    return WeightSpec.build([(-3.0, -2.0), (2.0, 3.0)], ["T", "T"])


def modified_u_h():
    # (exp(x) + 1) / (4 + x^2): positive on [-1, 1], analytic on the 5/4 disk.
    return HProduct((HExpScale(1.0, 1.0), HRational((1.0,), (4.0, 0.0, 1.0))))


@pytest.fixture(scope="session")
def spec_modified_u():
    return WeightSpec.single(ChebKind.U, h=modified_u_h())


@pytest.fixture(scope="session")
def green_two_band(spec_two_band):
    return build_green(spec_two_band)


@pytest.fixture(scope="session")
def hsys_two_band(spec_two_band, green_two_band):
    return build_hsystem(spec_two_band, green_two_band)


@pytest.fixture(scope="session")
def ctx_two_band(spec_two_band):
    return SolveContext(spec_two_band, 16)


@pytest.fixture(scope="session")
def ctx_u(spec_u):
    return SolveContext(spec_u, 16)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn): a list that records the arguments of every later call
    of fn, made under any name a rhjacobi module binds it to."""
    def count(original) -> list:
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rhjacobi":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
        return calls

    return count
