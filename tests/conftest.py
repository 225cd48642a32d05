import pytest

from orderinv.catalog import default_catalog_spec, iter_catalog


@pytest.fixture(scope="session")
def catalog64():
    """The default catalog, built once for the whole test session and
    sorted by (order, label)."""
    return sorted(iter_catalog(default_catalog_spec()), key=lambda g: (g.order, g.label))
