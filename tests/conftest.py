"""Fixtures shared by the test modules."""

import pytest

from ellipticlab import spectral


@pytest.fixture
def blas_routes(monkeypatch):
    """A generator function of the two BLAS platforms: it yields "openblas"
    (where numpy ships one), then "fallback", a numpy built against a system
    BLAS, simulated by patching `spectral._openblas` to None, so the Gram
    inverses, the Hessenberg reduction and the thread pin all take their
    fallbacks together.  The caller's loop body runs on the route yielded,
    and the fallback stays for the rest of the test."""
    def routes():
        if spectral._openblas() is not None:
            yield "openblas"
        monkeypatch.setattr(spectral, "_openblas", lambda: None)
        yield "fallback"
    return routes


@pytest.fixture
def blas():
    """The thread-count getter of numpy's bundled OpenBLAS, set to 2 for the test."""
    lib = spectral._openblas()
    if lib is None:
        pytest.skip("no bundled OpenBLAS found")
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    saved = get()
    set_(2)
    yield get
    set_(saved)
