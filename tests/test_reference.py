"""The analyses at paper scale against independent reference code.

networkx computes the six node statistics from a year's normalized weight
matrix with code of its own; they are compared with the ``stats_*.csv`` tables
as read back from a written bundle, floats at relative 1e-12.

scipy's ``pearsonr`` and its ``confidence_interval`` are an implementation of
the Pearson correlation and its Fisher-z band that shares no code with wnet.
They are compared over the 159-country gravity panel, at relative 1e-12.
Every compared value lies in [-1, 1], so cells near 0 also pass within an
absolute ``ATOL`` of 4 ulps of 1: there both sides' rounding, about one ulp of
the largest term they sum, is all that separates them (at most 2.5e-16 here).

The moments, densities, rank-size curves and tail fits of one bundle over the
same panel are each recomputed from the ``stats_*.csv`` columns it holds, as
read back through ``read_bundle``: by numpy and ``scipy.stats`` (population
moments, ``gaussian_kde``), and by a sort and a Hill estimator written here.
Floats compare at relative 1e-12, and integers and labels exactly.

The symmetry index, the comparison table and the tallies of ``counts.csv`` of
an ``all`` bundle over the same panel, with a link threshold that leaves some
countries with no link or one, are recomputed here: the index as Frobenius
norms in numpy of weights divided out of the panel's flows, the comparison as
period means of the correlation files, and the tallies as the NaN and dropped
cells of the ``stats_*.csv`` files.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from wnet import (
    PipelineConfig, WeightScheme, build_directed, correlation_series, load_panel, node_stats,
    run_pipeline, symmetrize,
)
from wnet.distributions import KDE_GRID_SIZE, SUPPORTED_PAIRS, fit_tail_rows
from wnet.pipeline import (
    ANALYSES, DENSITY_STATISTICS, MOMENT_STATISTICS, VIEW_PAIRS, bundle_names, read_bundle,
)

from conftest import write_gravity_panel

ATOL = 4 * 2.0**-52


def test_node_statistics_match_networkx_at_paper_scale(tmp_path):
    nx = pytest.importorskip("networkx")
    flows, gdp = write_gravity_panel(tmp_path, years=(1999, 2000))  # 159 countries
    panel = load_panel(flows, gdp)
    config = PipelineConfig(flows, gdp, WeightScheme(), panel.years, tmp_path / "bundle",
                            analyses=frozenset({"stats"}))
    run_pipeline(config)
    _, files = read_bundle(config.out_dir, bundle_names(config.analyses, panel.years))
    for year in panel.years:
        graph = nx.from_numpy_array(symmetrize(build_directed(panel, year, WeightScheme())).weights)
        table = files["stats", year]
        assert table["country"].tolist() == list(panel.codes)
        strength = dict(graph.degree(weight="weight"))
        wants = {
            "nd": dict(graph.degree),
            "ns": strength,
            "annd": nx.average_neighbor_degree(graph),
            "anns": {i: np.mean([strength[j] for j in graph[i]]) for i in graph},
            "bcc": nx.clustering(graph),
            "wcc": nx.clustering(graph, weight="weight"),
        }
        assert table["nd"].dtype == np.int64 and table["nd"].min() > 1, year
        assert table["nd"].tolist() == [wants["nd"][i] for i in graph], year
        for name in ("ns", "annd", "anns", "bcc", "wcc"):
            want = [wants[name][i] for i in graph]
            np.testing.assert_allclose(table[name], want, rtol=1e-12, atol=0, err_msg=f"{name} {year}")


def test_correlation_series_matches_scipy_at_paper_scale(tmp_path):
    scipy_stats = pytest.importorskip("scipy.stats")
    panel = load_panel(*write_gravity_panel(tmp_path))  # 159 countries, 3 years
    tables = {
        year: node_stats(symmetrize(build_directed(panel, year, WeightScheme())))
        for year in panel.years
    }
    for pair, names in SUPPORTED_PAIRS.items():
        series = correlation_series(tables, pair, 0.90)
        assert series["year"].tolist() == list(panel.years)
        for i, year in enumerate(panel.years):
            x, y = (tables[year][name].astype(float) for name in names)
            joint = np.isfinite(x) & np.isfinite(y)
            result = scipy_stats.pearsonr(x[joint], y[joint])
            band = result.confidence_interval(0.90)
            assert series["n"][i] == joint.sum() > 100, (pair, year)
            wants = {"r": result.statistic, "ci_low": band.low, "ci_high": band.high}
            for name, want in wants.items():
                got = series[name][i]
                assert got == pytest.approx(want, rel=1e-12, abs=ATOL), (pair, year, name)


#: The analyses whose files are recomputed from the bundle's own node statistics.
DERIVED = frozenset({"stats", "moments", "density", "ranksize", "tailfit"})


@pytest.fixture(scope="module")
def paper_bundle(tmp_path_factory):
    """The years, file names, manifest and columns of a ``DERIVED`` bundle over
    the 159-country gravity panel, 3 years, read back through ``read_bundle``."""
    tmp = tmp_path_factory.mktemp("paper")
    flows, gdp = write_gravity_panel(tmp)
    panel = load_panel(flows, gdp)
    config = PipelineConfig(flows, gdp, WeightScheme(), panel.years, tmp / "bundle", analyses=DERIVED)
    run_pipeline(config)
    names = bundle_names(DERIVED, panel.years)
    return (panel.years, names, *read_bundle(config.out_dir, names))


def defined(files, year: int, statistic: str) -> np.ndarray:
    """The defined values of ``statistic`` in ``stats_<year>.csv``, in country order."""
    x = files["stats", year][statistic].astype(float)
    return x[np.isfinite(x)]


def counted(files, year: int, name: str) -> int:
    """The value that ``counts.csv`` gives ``name`` in ``year``."""
    table = files["counts"]
    (value,) = table["value"][(table["year"] == year) & (table["name"] == name)]
    return int(value)


def test_moments_match_numpy_and_scipy_at_paper_scale(paper_bundle):
    scipy_stats = pytest.importorskip("scipy.stats")
    years, _, _, files = paper_bundle
    table = files["moments"]
    assert table["statistic"].tolist() == list(MOMENT_STATISTICS) * len(years)
    assert table["year"].tolist() == [year for year in years for _ in MOMENT_STATISTICS]
    for k, (name, year) in enumerate(zip(table["statistic"].tolist(), table["year"].tolist())):
        x = defined(files, year, name)
        wants = {
            "mean": np.mean(x),
            "std": np.std(x),
            "skewness": scipy_stats.skew(x, bias=True),
            "kurtosis": scipy_stats.kurtosis(x, fisher=False, bias=True),
        }
        # No cell is near zero, so none takes an absolute tolerance: the
        # smallest |skewness| here is 0.26, and no mean or std is 0.
        assert abs(wants["skewness"]) > 0.1 and wants["std"] > 0, (name, year)
        assert table["count"][k] == x.size > 100, (name, year)
        for column, want in wants.items():
            assert table[column][k] == pytest.approx(want, rel=1e-12, abs=0), (name, year, column)


def test_rank_size_curves_are_the_positive_strengths_sorted_descending(paper_bundle):
    years, _, _, files = paper_bundle
    for year in years:
        ns = files["stats", year]["ns"]
        want = np.sort(ns[ns > 0])[::-1]
        curve = files["ranksize", year]
        assert curve["rank"].tolist() == list(range(1, want.size + 1)), year
        assert np.array_equal(curve["size"], want), year  # a sort moves no bit
        assert counted(files, year, "ranksize_ns_dropped") == ns.size - want.size


#: Below the normal range a density carries fewer bits than relative 1e-12
#: needs, so such cells compare to an absolute 2**-1022, the smallest normal
#: double.  The cells it covers are those far enough (about 37 bandwidths)
#: from every data point that both sides' kernels underflow: 0 on both here.
DENSITY_ATOL = 2.0**-1022


def test_densities_match_scipy_gaussian_kde_at_paper_scale(paper_bundle):
    scipy_stats = pytest.importorskip("scipy.stats")
    years, names, manifest, files = paper_bundle
    for year, name in product(years, DENSITY_STATISTICS):
        x = defined(files, year, name)
        h = manifest["density_bandwidths"][names["density", name, year]]
        q75, q25 = np.percentile(x, [75, 25])
        silverman = 0.9 * min(np.std(x), (q75 - q25) / 1.34) * x.size ** -0.2
        assert h == pytest.approx(silverman, rel=1e-12, abs=0), (name, year)
        table = files["density", name, year]
        grid = table["grid"]
        assert grid.size == KDE_GRID_SIZE and np.all(np.diff(grid) > 0), (name, year)
        assert [grid[0], grid[-1]] == pytest.approx([x.min() - 3 * h, x.max() + 3 * h], rel=1e-12)
        # gaussian_kde scales the sample's ddof=1 covariance by bw_method squared.
        kde = scipy_stats.gaussian_kde(x, bw_method=h / np.std(x, ddof=1))
        np.testing.assert_allclose(
            table["density"], kde(grid), rtol=1e-12, atol=DENSITY_ATOL, err_msg=f"{name} {year}"
        )
        assert counted(files, year, f"density_{name}_dropped") == files["stats", year]["ns"].size - x.size


def hill(x: np.ndarray, fraction: float) -> dict[str, float]:
    """The log-normal body and Hill tail of the positive sample ``x``: the mean
    and population std of log x, the empirical 1 - ``fraction`` quantile (linear
    between order statistics) as x_min, and alpha = k / sum(log(x / x_min))
    over the k values at or above x_min."""
    x = np.sort(x)
    at = (x.size - 1) * (1 - fraction)
    low = math.floor(at)
    x_min = x[low] + (at - low) * (x[low + 1] - x[low])
    tail = x[np.searchsorted(x, x_min):]
    logs = np.log(x)
    return {
        "mu": logs.mean(), "sigma": logs.std(), "x_min": x_min,
        "alpha": tail.size / np.log(tail / x_min).sum(), "tail_count": tail.size,
    }


def test_tail_fits_match_a_hill_estimator_at_paper_scale(paper_bundle):
    years, _, manifest, files = paper_bundle
    fraction = manifest["config"]["tail_fraction"]
    table = files["tailfit"]
    assert table["year"].tolist() == list(years) and set(table["statistic"]) == {"ns"}
    assert table["tail_fraction"].tolist() == [fraction] * len(years)
    for k, year in enumerate(years):
        ns = files["stats", year]["ns"]
        x = ns[ns > 0]
        want = hill(x, fraction)
        assert table["n_positive"][k] == x.size and table["dropped"][k] == ns.size - x.size
        assert table["tail_count"][k] == want.pop("tail_count") > 5, year
        for column, value in want.items():
            assert table[column][k] == pytest.approx(value, rel=1e-12, abs=0), (year, column)
    # At one half, x_min is the 80th of 159 values itself, and the tail holds it.
    fits = fit_tail_rows(np.stack([files["stats", year]["ns"] for year in years]), 0.5)
    for k, year in enumerate(years):
        want = hill(defined(files, year, "ns"), 0.5)
        assert fits["tail_count"][k] == want.pop("tail_count") == 80, year
        for column, value in want.items():
            assert fits[column][k] == pytest.approx(value, rel=1e-12, abs=0), (year, column)


#: A link threshold under which 12-16 of the 159 countries have no link and
#: 8-10 have one, in each year of the gravity panel.
SPARSE = WeightScheme(threshold=1e7)


@pytest.fixture(scope="module")
def sparse_bundles(tmp_path_factory):
    """The panel, and the manifest and columns of an ``all`` bundle and a
    ``build`` bundle over the 159-country gravity panel under ``SPARSE``, read
    back through ``read_bundle``."""
    tmp = tmp_path_factory.mktemp("sparse")
    flows, gdp = write_gravity_panel(tmp)
    panel = load_panel(flows, gdp)
    bundles = []
    for analyses in (ANALYSES, {"links"}):
        config = PipelineConfig(flows, gdp, SPARSE, panel.years, tmp / "-".join(sorted(analyses)),
                                analyses=frozenset(analyses))
        run_pipeline(config)
        bundles.append(read_bundle(config.out_dir, bundle_names(config.analyses, panel.years)))
    return panel, *bundles


def test_symmetry_index_matches_numpy_frobenius_norms_at_paper_scale(sparse_bundles):
    panel, (_, files), _ = sparse_bundles
    table = files["symmetry"]
    assert table["year"].tolist() == list(panel.years)
    for k, year in enumerate(panel.years):
        rows = panel.flow_year == year
        exporter, importer, value = panel.exporter[rows], panel.importer[rows], panel.value[rows]
        linked = value > SPARSE.threshold
        w = np.zeros((len(panel.codes), len(panel.codes)))
        gdp = panel.gdp[panel.years.index(year)]
        w[exporter[linked], importer[linked]] = value[linked] / gdp[exporter[linked]]
        want = np.sqrt(np.sum((w - w.T) ** 2)) / np.sqrt(np.sum((w + w.T) ** 2))
        assert 0 < want < 1
        assert table["symmetry_index"][k] == pytest.approx(want, rel=1e-12, abs=0), year


def test_comparison_is_the_period_mean_of_the_correlation_files(sparse_bundles):
    _, (manifest, files), _ = sparse_bundles
    strong, moderate = manifest["config"]["strong_cut"], manifest["config"]["moderate_cut"]

    def label(r: float) -> str:
        size = "strong" if abs(r) >= strong else "moderate" if abs(r) >= moderate else "weak"
        return f"{size} {'positive' if r > 0 else 'negative'}"

    table = files["comparison"]
    assert table["view"].tolist() == list(VIEW_PAIRS)
    for k, pairs in enumerate(VIEW_PAIRS.values()):
        for role, pair in pairs.items():
            rs = files["correlations", pair]["r"].tolist()
            want = math.fsum(rs) / len(rs)
            assert table[f"{role}_pair"][k] == pair
            assert table[f"{role}_r"][k] == pytest.approx(want, rel=1e-12, abs=0), pair
            assert table[f"{role}_label"][k] == label(want), pair


def test_counts_are_the_nan_and_dropped_tallies_of_the_stats_files(sparse_bundles):
    panel, (_, files), (_, built) = sparse_bundles
    wants = []
    for year in panel.years:
        table = files["stats", year]
        wants += [(year, f"{name}_undefined", int(np.isnan(table[name]).sum()))
                  for name in MOMENT_STATISTICS[2:]]
        for name in DENSITY_STATISTICS:
            wants.append((year, f"density_{name}_dropped", int(np.isnan(table[name]).sum())))
        dropped = int(np.sum(~(table["ns"] > 0)))  # NaN or not positive
        wants += [(year, "ranksize_ns_dropped", dropped), (year, "tailfit_ns_dropped", dropped)]
    assert min(value for _, name, value in wants if name.endswith("_undefined")) > 0
    counts = files["counts"]
    got = list(zip(counts["year"].tolist(), counts["name"].tolist(), counts["value"].tolist()))
    assert got == sorted(wants)
    # build computes no node statistic, and tallies the undefined ones from the degree.
    counts = built["counts"]
    got = list(zip(counts["year"].tolist(), counts["name"].tolist(), counts["value"].tolist()))
    assert got == sorted(want for want in wants if want[1].endswith("_undefined"))
