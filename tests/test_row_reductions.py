"""Differential tests of the analyses' row functions against per-sample code.

``moments_rows``, ``pearson_rows``, ``kde_bandwidths``, ``kde_rows``,
``rank_size_rows`` and ``fit_tail_rows`` reduce whole stacks of rows at once.  Each must give
every row the bits that the per-sample references in ``oracles.py``
(``np.corrcoef``, ``np.percentile``, ``np.quantile``, one sample at a time)
give that row alone, NaN where they give NaN, and, for a stack with a
failing row, the DataError of the first row that fails.
"""

from __future__ import annotations

import sys
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wnet import (  # noqa: E402
    DataError,
    PipelineConfig,
    WeightScheme,
    build_directed,
    load_panel,
    node_stats,
    run_pipeline,
    save_panel,
    symmetrize,
)
from wnet.distributions import (  # noqa: E402
    SUPPORTED_PAIRS,
    fit_tail_rows,
    kde_bandwidths,
    kde_rows,
    pearson_rows,
    rank_size_rows,
)
from wnet.stats import moments_rows  # noqa: E402

from conftest import panel_from_rows  # noqa: E402
from oracles import (  # noqa: E402
    fit_tail_oracle,
    kde_bandwidth_oracle,
    kde_oracle,
    moments_oracle,
    pearson_ci_oracle,
    rank_size_oracle,
)

STATISTICS = ("nd", "ns", "annd", "anns", "bcc", "wcc")

#: Defined counts at the edge of some analysis: moments need 2, a correlation
#: 3 pairs (and 4 for a Fisher band), a density 5, a tail fit 50.
EDGES = (0, 1, 2, 3, 4, 5, 6, 49, 50, 51)

#: Makers of k values: spread, ties, constant, positive and heavy-tailed,
#: zeros and negatives, and a scale far from 1.
STYLES = (
    lambda rng, k: rng.normal(0.0, 1.0, k),
    lambda rng, k: rng.integers(0, 3, k).astype(float),
    lambda rng, k: np.full(k, rng.choice([0.0, 2.5, -1.0])),
    lambda rng, k: rng.lognormal(0.0, 2.0, k),
    lambda rng, k: rng.choice([-2.0, 0.0, 0.5, 7.0], k),
    lambda rng, k: rng.normal(0.0, 1.0, k) * 10.0 ** rng.integers(-30, 30),
)


@st.composite
def stacks(draw, sides: int = 1):
    """``sides`` (rows × width) stacks with the same cells defined, each row's
    count its own; every side but the first then loses a few cells.  An
    undefined cell is NaN or, now and then, infinite."""
    width = draw(st.integers(0, 64))
    years = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = np.full((sides, years, width), np.nan)
    for i in range(years):
        k = min(width, draw(st.sampled_from(EDGES) | st.integers(0, width)))
        at = rng.choice(width, k, replace=False)
        for side in range(sides):
            out[side, i, at] = STYLES[draw(st.integers(0, len(STYLES) - 1))](rng, k)
    out[1:][rng.random(out[1:].shape) < 0.03] = np.nan
    out[np.isnan(out) & (rng.random(out.shape) < 0.1)] = np.inf
    return out


def where(i: int) -> str:
    return f"row {i}"


def density_cells(result) -> np.ndarray:
    """One density's grid, density, bandwidth and count as one flat array."""
    grid, density, h, n = result
    return np.concatenate([grid, density, [h, n]])


def each_row(columns: dict):
    """Each row's cells of a row function's ``columns``."""
    return zip(*columns.values())


#: (row function, its options, per-sample reference, the reference's result
#: as a flat tuple, each row's result from the row function's as one).
ANALYSES = [
    (moments_rows, {}, moments_oracle, tuple, each_row),
    (pearson_rows, {"level": 0.9}, pearson_ci_oracle, tuple, each_row),
    (kde_bandwidths, {"bandwidth": None}, kde_bandwidth_oracle, lambda h: (h,), lambda hs: zip(hs)),
    (kde_bandwidths, {"bandwidth": 0.5}, kde_bandwidth_oracle, lambda h: (h,), lambda hs: zip(hs)),
    (kde_rows, {"bandwidth": None}, kde_oracle, density_cells, lambda c: map(density_cells, each_row(c))),
    (kde_rows, {"bandwidth": 0.5}, kde_oracle, density_cells, lambda c: map(density_cells, each_row(c))),
    (
        rank_size_rows, {}, rank_size_oracle,
        lambda result: (result[1], *result[0]),
        lambda curves: ((dropped, *sizes) for sizes, dropped in zip(curves["size"], curves["dropped"])),
    ),
    (fit_tail_rows, {"tail_fraction": 0.05}, fit_tail_oracle, tuple, each_row),
]


def assert_same_bits(got, want) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    undefined = np.isnan(want)
    assert (np.isnan(got) == undefined).all()
    assert (got[~undefined].view(np.int64) == want[~undefined].view(np.int64)).all()


def check_stack(*stacks: np.ndarray) -> None:
    """Each row function on ``stacks`` (only the first, but for Pearson's two
    sides), and on the rows its reference accepts, against that reference:
    the same bits in every row, or the same error for the first row that fails."""
    for function, options, oracle, flat, flat_rows in ANALYSES:
        sides = stacks[: 2 if function is pearson_rows else 1]
        references = []
        for rows in zip(*sides):
            try:
                references.append(flat(oracle(*rows, **options)))
            except DataError as exc:
                references.append(exc)
        first = next((i for i, ref in enumerate(references) if isinstance(ref, DataError)), None)
        if first is not None:
            with pytest.raises(DataError) as raised:
                function(*sides, **options, where=where)
            assert str(raised.value) == f"{where(first)}: {references[first]}"
        accepted = [i for i, ref in enumerate(references) if not isinstance(ref, DataError)]
        if accepted:
            got = list(flat_rows(function(*(side[accepted] for side in sides), **options, where=where)))
            assert len(got) == len(accepted)
            for row, i in zip(got, accepted):
                assert_same_bits(row, references[i])


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(stacks(sides=2))
def test_each_row_has_the_bits_of_the_per_sample_code(pair):
    check_stack(*pair)


def padded(*rows) -> np.ndarray:
    """A stack of ``rows``, each padded with NaN to 64 cells."""
    stack = np.full((len(rows), 64), np.nan)
    for i, row in enumerate(rows):
        stack[i, : len(row)] = row
    return stack


@pytest.mark.parametrize("stack", [
    # A row that fails a later check comes before one that fails an earlier
    # check: a constant row, then rows too short for a density, a
    # correlation, moments; a degenerate tail (its top 5% tied), then a
    # short row; and the same rows the other way round.
    padded(np.full(60, 2.5), np.arange(4.0), [1.0, 2.0], [1.0]),
    padded([*range(1, 56), *[100.0] * 5], np.arange(10.0)),
    padded([1.0], [1.0, 2.0], np.arange(4.0), np.full(60, 2.5)),
    padded(np.arange(10.0), [*range(1, 56), *[100.0] * 5]),
])
def test_the_first_failing_row_gives_the_error(stack):
    check_stack(stack, stack[:, ::-1].copy())
    check_stack(stack, stack + 1.0)


def first_error_of_the_per_year_loops(tables: dict, analyses) -> str | None:
    """The DataError a run of ``analyses`` raised when each analysis looped
    over the years, one sample at a time: the first analysis, in run order,
    then the first year (and statistic or pair) that fails."""
    loops = {
        "moments": [
            (f"moments of {name} in year {year}", moments_oracle, name)
            for year in tables for name in STATISTICS
        ],
        "correlations": [
            (f"{pair} in year {year}", pearson_ci_oracle, *names)
            for pair, names in SUPPORTED_PAIRS.items() for year in tables
        ],
        "density": [
            (f"density of {name} in year {year}", kde_bandwidth_oracle, name)
            for year in tables for name in ("nd", "ns")
        ],
        "ranksize": [(f"rank-size of ns in year {year}", rank_size_oracle, "ns") for year in tables],
        "tailfit": [(f"tail fit of ns in year {year}", fit_tail_oracle, "ns") for year in tables],
    }
    for analysis, steps in loops.items():
        if analysis not in analyses:
            continue
        for what, oracle, *names in steps:
            year = int(what.rsplit(" ", 1)[1])
            try:
                oracle(*(tables[year].column(name) for name in names))
            except DataError as exc:
                return f"{what}: {exc}"
    return None


@st.composite
def sparse_panels(draw):
    """Flow and GDP rows over 3-7 countries and 1-3 years, sparse enough that
    some node statistics are undefined; every year has a flow."""
    codes = [f"K{i}" for i in range(draw(st.integers(3, 7)))]
    years = range(2000, 2000 + draw(st.integers(1, 3)))
    density = draw(st.sampled_from([0.15, 0.35, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flows = [
        (year, a, b, float(rng.lognormal(10.0, 2.0)))
        for year in years for a, b in product(codes, codes)
        if a != b and ((a, b) == (codes[0], codes[1]) or rng.random() < density)
    ]
    sizes = [(year, c, float(rng.lognormal(20.0, 1.0))) for year in years for c in codes]
    return flows, sizes


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    sparse_panels(),
    st.sets(st.sampled_from(["moments", "correlations", "density", "ranksize", "tailfit"]), min_size=1),
)
def test_a_run_raises_the_error_of_the_per_year_loops(rows, analyses):
    panel = panel_from_rows(*rows)
    scheme = WeightScheme()
    tables = {year: node_stats(symmetrize(build_directed(panel, year, scheme))) for year in panel.years}
    expected = first_error_of_the_per_year_loops(tables, analyses)
    with tempfile.TemporaryDirectory() as tmp:
        flows, gdp = Path(tmp, "flows.csv"), Path(tmp, "gdp.csv")
        save_panel(panel, flows, gdp)
        config = PipelineConfig(
            flows=flows, gdp=gdp, scheme=scheme, years=tuple(panel.years),
            out_dir=Path(tmp, "out"), analyses=frozenset(analyses),
        )
        try:
            run_pipeline(config)
        except DataError as exc:
            assert str(exc) == expected
        else:
            assert expected is None


def test_the_300_year_benchmark_panel_has_the_bits_of_the_per_sample_code():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from gen import Spec, generate
    finally:
        sys.path.pop(0)
    # The long-60x300 workload at seed 0.
    _, flows, gdp = generate(Spec(nodes=60, years=300, floor=2e8, gdp_sigma=0.5), 0)
    panel = load_panel(flows, gdp)
    tables = [node_stats(symmetrize(build_directed(panel, y, WeightScheme()))) for y in panel.years]
    stack = np.array([[table.column(name) for name in STATISTICS] for table in tables])
    check_stack(stack.reshape(-1, 60), stack[:, ::-1].reshape(-1, 60))
    for first, second in SUPPORTED_PAIRS.values():
        check_stack(*(stack[:, STATISTICS.index(name)] for name in (first, second)))
