import pytest

from dlogsidon.arith import INTEGERS, smallest_primitive_root
from dlogsidon.basis import MAX_INDEX, Basis, build_basis
from dlogsidon.bh import bh_generate, bh_params
from dlogsidon.blocks import const_sqrt2, const_sqrt5, sidon_params
from dlogsidon.generator import generate_blocks
from dlogsidon.gf2x import GF2


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


@pytest.fixture(autouse=True)
def rings_keep_no_instance_attributes():
    """Fail a test that leaves an attribute on the INTEGERS or GF2 object.

    Undoing a monkeypatch of a ring instance leaves the original function
    behind as an instance attribute, which silently shadows every later
    patch of that name on the ring's class; patch the class instead.
    """
    yield
    for ring in (INTEGERS, GF2):
        assert not vars(ring), f"{type(ring).__name__} instance keeps {sorted(vars(ring))}"


@pytest.fixture(scope="session")
def default_basis():
    return build_basis(4, 8)


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
    basis = build_basis(9, 9)
    prefix = bh_generate(9, params, basis)
    return params, basis, prefix


@pytest.fixture(scope="session")
def document_past_max_index():
    """A scale-9 basis document of the deterministic entries j = 1..MAX_INDEX
    and the least prime of the next dyadic window."""
    doc = build_basis(9, MAX_INDEX).to_json_doc()
    q, g = INTEGERS.basis_entry(MAX_INDEX + 1)
    doc["entries"].append({"j": MAX_INDEX + 1, "q": q, "g": g})
    return doc


@pytest.fixture
def fake_basis():
    """Factory for fixed bases of any distinct primes (dyadic or not) used by
    synthetic fixtures."""

    def make(qs, scale):
        entries = [(q, smallest_primitive_root(q)) for q in qs]
        return Basis(scale, entries)

    return make
