"""The fit kernels run in place: the bits of the plain expressions, in fewer arrays.

``_log_pdf_terms``, ``_score_hessian``, ``limit_cdf``, ``limit_log_pdf`` and
``ks_model`` write each intermediate into an array they have already spent.
These tests pin them, bit for bit, to the plain expressions kept in
``tests/oracles.py``, and bound their tracemalloc peaks in arrays of the
sample.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import (
    ks_per_point_expression,
    limit_cdf_expression,
    log_pdf_terms_expressions,
    score_hessian_expressions,
)
from wetmax import MaximaSample, ModelParams, ks_model, limit_cdf, limit_log_pdf, limit_quantile, make_rng
from wetmax.distributions import _log_pdf_terms
from wetmax.estimation import _score_hessian

# r and gamma on both sides of 1; gamma = 0.5 takes numpy's square-root path of ``**``
KERNEL_PARAMS = [
    ModelParams(0.4, 1.3, 0.6),
    ModelParams(0.4, 0.2, 1.7),
    ModelParams(2.5, 1.3, 0.5),
    ModelParams(2.5, 0.2, 1.7),
]
SIZES = [1, 2, 400, 3000]
# the float extremes and the points where exp(-|log t|) underflows
EXTREMES = np.array([5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300])


def _sample(m: int) -> np.ndarray:
    """m draws from the law with (r, lam, gamma) = (0.85, 1.5, 1.2), by inversion."""
    return limit_quantile(make_rng(600 + m).uniform(size=m), ModelParams(0.85, 1.5, 1.2))


def _log_pdf_expression(x, p: ModelParams):
    return log_pdf_terms_expressions(np.log(np.asarray(x, dtype=float)), p.r, p.lam, p.gamma)[0]


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("fix_r", [True, False])
@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("p", KERNEL_PARAMS, ids=repr)
def test_score_hessian_is_the_plain_expressions_bit_for_bit(p, m, fix_r):
    logx = np.log(_sample(m))
    before = logx.copy()
    ll, score, hessian = _score_hessian(logx, p.r, p.lam, p.gamma, fix_r)
    ll_expr, score_expr, hessian_expr = score_hessian_expressions(logx, p.r, p.lam, p.gamma, fix_r)
    assert _bits(ll) == _bits(ll_expr)
    assert score.shape == score_expr.shape and _bits(score) == _bits(score_expr)
    assert hessian.shape == hessian_expr.shape and _bits(hessian) == _bits(hessian_expr)
    assert _bits(logx) == _bits(before)  # the kernel writes only into its own arrays


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("p", KERNEL_PARAMS, ids=repr)
def test_log_pdf_terms_cdf_and_log_pdf_are_the_plain_expressions_bit_for_bit(p, m):
    x = np.concatenate((_sample(m), EXTREMES))
    logx = np.log(x)
    with np.errstate(all="ignore"):
        terms = _log_pdf_terms(logx, p.r, p.lam, p.gamma)
        expected = log_pdf_terms_expressions(logx, p.r, p.lam, p.gamma)
        for got, want in zip(terms, expected):
            assert _bits(got) == _bits(want)
        assert _bits(limit_log_pdf(x, p)) == _bits(_log_pdf_expression(x, p))
        with_zero = np.concatenate(([0.0], x))
        assert _bits(limit_cdf(with_zero, p)) == _bits(limit_cdf_expression(with_zero, p))


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("p", KERNEL_PARAMS, ids=repr)
def test_ks_model_is_the_plain_per_point_maximum(p, m):
    sample = MaximaSample(_sample(m))
    per_point = ks_per_point_expression(sample.sorted_values, p)
    at = int(np.argmax(per_point))
    for given in (sample, sample.values):  # a MaximaSample, and a plain array sorted inside
        result = ks_model(given, p)
        assert _bits(result.ks_distance) == _bits(per_point[at])
        assert _bits(result.location) == _bits(sample.sorted_values[at])
        assert result.m == m


@pytest.mark.parametrize("function,expression", [
    (limit_cdf, limit_cdf_expression),
    (limit_log_pdf, _log_pdf_expression),
])
def test_scalar_zero_d_empty_and_2d_inputs(function, expression):
    p = KERNEL_PARAMS[2]
    for x in (2.5, 3, np.float64(0.7), np.array(1e-300), np.array(1e10)):
        value = function(x, p)
        assert type(value) is float
        assert _bits(value) == _bits(expression(x, p))
    empty = function(np.array([]), p)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    grid = np.array([[0.5, 1.0, 2.0], [3.0, 40.0, 1e-200]])
    value = function(grid, p)
    assert value.shape == (2, 3) and _bits(value) == _bits(expression(grid, p))
    assert _bits(function([0.5, 2.0], p)) == _bits(expression([0.5, 2.0], p))


@pytest.mark.parametrize("kernel,arrays", [("score_hessian", 4), ("limit_cdf", 1), ("ks_model", 3)])
def test_peak_memory_in_arrays_of_the_sample(kernel, arrays):
    # each intermediate goes into an array the kernel has already spent
    m = 100_000
    values = _sample(m)
    sample, logx, p = MaximaSample(values), np.log(values), ModelParams(0.85, 1.5, 1.2)
    call = {
        "score_hessian": lambda: _score_hessian(logx, p.r, p.lam, p.gamma, False),
        "limit_cdf": lambda: limit_cdf(values, p),
        "ks_model": lambda: ks_model(sample, p),
    }[kernel]
    call()  # one-time set-up inside numpy is not the kernel's
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * m + 65536  # array headers and small objects
