import pytest


@pytest.fixture(autouse=True)
def private_cache(tmp_path_factory, monkeypatch):
    """Each test gets its own empty VROPT_CACHE: no test reads another's
    reference solutions or parsed data, and none writes to the user's cache."""
    monkeypatch.setenv("VROPT_CACHE", str(tmp_path_factory.mktemp("vropt-cache")))
