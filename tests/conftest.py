from functools import lru_cache

import pytest

from edcert import permgroup
from edcert.catalogue import build, parse_group_spec
from edcert.permgroup import DEFAULT_CAP


@lru_cache(maxsize=None)
def _built(text, cap=DEFAULT_CAP):
    return build(parse_group_spec(text), cap)


@pytest.fixture(scope="session")
def group_of():
    """Session-cached group builder: group_of('A:7'), or group_of('A:7', 100)
    for a group with enumeration cap 100."""
    return _built


@pytest.fixture
def chain_builds(monkeypatch):
    """The degrees of the stabilizer chains built while a test runs."""
    built = []
    init = permgroup.StabilizerChain.__init__

    def counting(chain, generators, degree, *rest):
        built.append(degree)
        init(chain, generators, degree, *rest)

    monkeypatch.setattr(permgroup.StabilizerChain, "__init__", counting)
    return built
