import pytest

from dlogsidon.arith import smallest_primitive_root
from dlogsidon.basis import Basis, build_basis
from dlogsidon.bh import bh_generate, bh_params
from dlogsidon.blocks import const_sqrt2, const_sqrt5, sidon_params
from dlogsidon.generator import generate_blocks


def pytest_addoption(parser):
    parser.addoption("--slow", action="store_true",
                     help="also run the tests marked slow (desk-scale runs of a minute or more)")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: desk-scale check, skipped unless --slow is given")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def default_basis():
    return build_basis("deterministic", 4, 8)


@pytest.fixture(scope="session")
def sqrt5_params():
    return sidon_params(c=const_sqrt5())


@pytest.fixture(scope="session")
def sqrt2_params():
    return sidon_params(c=const_sqrt2())


@pytest.fixture(scope="session")
def sqrt5_prefix_k7(default_basis, sqrt5_params):
    return generate_blocks(7, sqrt5_params, default_basis)


@pytest.fixture(scope="session")
def sqrt2_prefix_k7(default_basis, sqrt2_params):
    return generate_blocks(7, sqrt2_params, default_basis)


@pytest.fixture(scope="session")
def bh3():
    params = bh_params(3)
    basis = build_basis("deterministic", 9, 9)
    prefix = bh_generate(9, params, basis)
    return params, basis, prefix


@pytest.fixture
def fake_basis():
    """Factory for non-dyadic fixed bases used by synthetic fixtures."""

    def make(qs, scale):
        entries = [(q, smallest_primitive_root(q)) for q in qs]
        return Basis(scale, entries, mode="fixed", require_dyadic=False)

    return make
