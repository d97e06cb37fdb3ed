from __future__ import annotations

import pytest

from adeweights.graphs import DynkinType
from adeweights.verify import DEFAULT_SUITE, PARTS, build_bundle

SUITE = list(DEFAULT_SUITE)


@pytest.fixture(scope="session")
def bundle():
    """Shared per-type computation cache (build_bundle memoizes), each
    bundle handed over with every part built, as ``verify`` builds it, so a
    test counting one function's work never counts a part's first build."""
    def get(name: str):
        b = build_bundle(DynkinType.parse(name))
        for part in PARTS:
            getattr(b, part)
        return b
    return get


@pytest.fixture(scope="session")
def suite_types():
    return SUITE
