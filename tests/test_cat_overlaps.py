"""Closed-form V and W of the cat pair against quadrature over the callable
pair in ``tests/oracles.py`` and against mpmath at 40 digits.

V = 2 c_+ c_- erf(mu) and W = 2 c_+ c_- pi^{-1/2} int e^{-p^2} |sin 2 mu p| dp,
mu = sqrt(2) alpha; W comes from a Fourier series of |sin| for mu >= 0.25 and
from the first lobe, a Dawson integral, below.
"""

import json
import math
import sys
import time
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellscope import cli
from bellscope.rootbin import _cat_overlaps, cat_norms, overlaps_VW
from oracles import callable_cat_pair, quadrature_overlaps_VW

EPS = 2.0 ** -52
TOL = 1e-9


def mp_cat_norms(alpha):
    a2 = mpmath.mpf(alpha) ** 2
    return (
        1 / mpmath.sqrt(2 * (1 + mpmath.exp(-2 * a2))),
        1 / mpmath.sqrt(-2 * mpmath.expm1(-2 * a2)),
    )


def mp_overlaps(alpha):
    """(V, W) at 40 digits.  W is the Fourier series where it converges in
    a few hundred terms, and mpmath's own Dawson integral, sqrt(pi)/2
    e^{-mu^2} erfi(mu), plus nothing where it does not: the lobes past the
    first add less than e^{-(pi/(2 mu))^2}, below 1e-400 there."""
    with mpmath.workdps(40):
        c_plus, c_minus = mp_cat_norms(alpha)
        scale = 2 * c_plus * c_minus
        mu = mpmath.sqrt(2) * mpmath.mpf(alpha)
        v = scale * mpmath.erf(mu)
        if mu < mpmath.mpf("0.05"):
            dawson = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-mu * mu) * mpmath.erfi(mu)
            w = scale * 2 / mpmath.sqrt(mpmath.pi) * dawson
        else:
            tail = mpmath.nsum(
                lambda n: mpmath.exp(-4 * n * n * mu * mu) / (4 * n * n - 1), [1, mpmath.inf]
            )
            w = scale * (2 / mpmath.pi - 4 / mpmath.pi * tail)
        return v, w


def rel(a, b):
    return float(abs((mpmath.mpf(a) - b) / b))


MP_ALPHAS = (
    1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.05, 0.1, 0.15, 0.25 / math.sqrt(2.0), 0.18,
    0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0,
)


@pytest.mark.parametrize("alpha", MP_ALPHAS)
def test_closed_form_against_mpmath(alpha):
    v, w = overlaps_VW(alpha)
    v_ref, w_ref = mp_overlaps(alpha)
    assert rel(v, v_ref) <= 4 * EPS
    assert rel(w, w_ref) <= 4 * EPS


@pytest.mark.parametrize("alpha", MP_ALPHAS)
def test_odd_normalisation_against_mpmath(alpha):
    """c_- through expm1: 1 - e^{-2 a^2} no longer cancels at small alpha."""
    with mpmath.workdps(40):
        assert rel(cat_norms(alpha)[1], mp_cat_norms(alpha)[1]) <= 2 * EPS


@pytest.mark.parametrize("alpha", (0.1, 0.5, 1.0))
def test_w_against_mpmath_quadrature(alpha):
    """W from mpmath's quadrature of e^{-p^2} |sin 2 mu p|, one piece per
    lobe, independent of either closed form."""
    with mpmath.workdps(40):
        c_plus, c_minus = mp_cat_norms(alpha)
        mu = mpmath.sqrt(2) * mpmath.mpf(alpha)
        spacing = mpmath.pi / (2 * mu)
        edges = [k * spacing for k in range(int(12 / spacing) + 2)]
        half = mpmath.quad(lambda p: mpmath.exp(-p * p) * abs(mpmath.sin(2 * mu * p)), edges)
        w_ref = 2 * c_plus * c_minus * 2 * half / mpmath.sqrt(mpmath.pi)
        assert rel(overlaps_VW(alpha)[1], w_ref) <= 4 * EPS


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(min_value=0.05, max_value=12.0))
def test_closed_form_against_quadrature(alpha):
    v, w = overlaps_VW(alpha)
    v_quad, w_quad = quadrature_overlaps_VW(callable_cat_pair(alpha), TOL)
    assert v == pytest.approx(v_quad, rel=0, abs=TOL)
    assert w == pytest.approx(w_quad, rel=0, abs=TOL)


def test_w_forms_agree_at_the_switch():
    """The series (mu >= 0.25) and the first lobe (below) at mu = 0.25."""
    below = math.nextafter(0.25, 0.0)
    _, w_series = _cat_overlaps(0.25, 1.0)
    _, w_lobe = _cat_overlaps(below, 1.0)
    assert abs(w_series - w_lobe) <= 1e-15


def test_large_amplitude_allocates_no_root_list():
    """The closed form needs no partition of the p window, whose root count
    grows as alpha^2 (462,687 roots at alpha = 300)."""
    tracemalloc.start()
    try:
        overlaps_VW(300.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_overlaps_bounded_by_one():
    for alpha in MP_ALPHAS:
        v, w = overlaps_VW(alpha)
        assert 0.0 < v <= 1.0 and 0.0 < w <= 1.0


@pytest.mark.parametrize("alpha", ("1e-9", "50"))
def test_cli_extreme_amplitudes(tmp_path, alpha):
    """Both ends of the amplitude range run fast and match mpmath: the sums
    stay short, and 1e-9 no longer divides by zero in c_-."""
    started = time.perf_counter()
    assert cli.main(["cat-vw", "--alpha", alpha, "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - started < 0.5
    with open(tmp_path / "cat-vw.json", encoding="utf-8") as fh:
        headline = json.load(fh)["headline"]
    v_ref, w_ref = mp_overlaps(float(alpha))
    assert rel(headline["V"], v_ref) <= 1e-14
    assert rel(headline["W"], w_ref) <= 1e-14


@pytest.mark.filterwarnings("error")
def test_psi3_curve_past_the_root_spacing_overflow(tmp_path):
    """At alpha = 1e-320 the p roots' spacing pi/(2 mu) overflows to inf; the
    root at 0 stays 0 (not 0 * inf = nan), so the Bell columns read as at
    1e-160, where the spacing is finite."""
    rows = []
    for alpha in ("1e-160", "1e-320"):
        assert cli.main(["psi3-curve", "--alpha", alpha, "--out", str(tmp_path / alpha)]) == 0
        lines = (tmp_path / alpha / "psi3-curve.csv").read_text(encoding="utf-8").splitlines()
        rows.append(lines[1].split(",")[1:4])
    assert rows[1] == rows[0] == ["0", "0", "0"]


# alpha^2 is subnormal from 1.49e-154 down; the CLI's cat-vw stops at the
# least normal float, below which mu = sqrt(2) alpha loses digits as well.
SUBNORMAL_SQUARES = (1.49e-154, 1e-158, 1e-160, 1e-161, 1e-163, 1e-200, 1e-300, sys.float_info.min)


@pytest.mark.parametrize("alpha", (1.5e-154, *SUBNORMAL_SQUARES))
def test_subnormal_square_takes_the_limit(alpha):
    """c_- = 1/(2 alpha) once alpha^2 has lost digits, so V = W stay at
    sqrt(2/pi), the 1e-9 golden row's digits, all the way down."""
    with mpmath.workdps(40):
        assert rel(cat_norms(alpha)[1], mp_cat_norms(alpha)[1]) <= 2 * EPS
    v, w = overlaps_VW(alpha)
    v_ref, w_ref = mp_overlaps(alpha)
    assert rel(v, v_ref) <= 4 * EPS and rel(w, w_ref) <= 4 * EPS
    assert format(v, ".12g") == format(w, ".12g") == "0.797884560803"


def test_cli_down_to_the_least_normal_amplitude(tmp_path):
    """cat-vw prints the golden digits to its bound and refuses below it;
    prep-fidelity, which needs only c_+, runs at 1e-163 too."""
    alphas = ("1e-163", repr(sys.float_info.min))
    for alpha in alphas:
        assert cli.main(["cat-vw", "--alpha", alpha, "--out", str(tmp_path / alpha)]) == 0
        row = (tmp_path / alpha / "cat-vw.csv").read_text(encoding="utf-8").splitlines()[1]
        assert row.split(",")[1:] == ["0.797884560803"] * 2
    below = repr(math.nextafter(sys.float_info.min, 0.0))
    assert cli.main(["cat-vw", "--alpha", below, "--out", str(tmp_path)]) == 2
    assert cli.main(["prep-fidelity", "--alpha", "1e-163", "--out", str(tmp_path)]) == 0
