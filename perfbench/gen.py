"""Deterministic synthetic gravity panels for the benchmark workloads.

Flows follow a gravity law: e_ij = scale * s_i * s_j * noise_ij, where s is
each country's share of world GDP and the noise is log-normal.  Flows at or
below the workload's reporting floor are not reported, which sets the
network density.  Every random draw is made on whole arrays, so one seed
gives one panel and the CSV bytes depend on nothing else.

The panel returned to the caller holds the values as the program will read
them back from the CSVs (each printed to six significant digits and parsed
with ``float``), so independent checks can recompute statistics exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

FIRST_YEAR = 1981
FLOW_SCALE = 2e11
NOISE_SIGMA = 1.2  # spread of log flow noise


@dataclass(frozen=True)
class Spec:
    """Shape of one synthetic panel."""

    nodes: int
    years: int
    floor: float  # flows at or below this value are not reported
    gdp_sigma: float = 2.0  # spread of log GDP across countries


@dataclass(frozen=True, eq=False)
class Panel:
    """A generated panel: the values written to the CSVs, as parsed back."""

    codes: tuple[str, ...]
    years: tuple[int, ...]
    gdp: np.ndarray  # (years, nodes)
    flows: np.ndarray  # (years, nodes, nodes); 0 where no flow is reported


def _as_written(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Six-significant-digit text of each value and the float it parses to."""
    text = np.char.mod("%.6g", values)
    return text, np.array([float(t) for t in text.tolist()], dtype=float)


def generate(spec: Spec, seed: int) -> tuple[Panel, bytes, bytes]:
    """Return the panel plus the flow and GDP CSV bytes for one seed."""
    rng = np.random.default_rng(seed)
    n, t = spec.nodes, spec.years
    codes = np.array([f"C{i:04d}" for i in range(n)])
    years = np.arange(FIRST_YEAR, FIRST_YEAR + t)

    # Evenly spaced normal quantiles, dealt to countries at random: every seed
    # gets the same GDP spread, so the amount of work hardly depends on it.
    scores = NormalDist(24.0, spec.gdp_sigma).inv_cdf
    log_gdp = rng.permutation([scores((i + 0.5) / n) for i in range(n)])
    growth = rng.normal(0.03, 0.02, (t, n))
    growth[0] = 0.0
    gdp = np.exp(log_gdp + np.cumsum(growth, axis=0))
    share = gdp / gdp.sum(axis=1, keepdims=True)
    noise = np.exp(rng.normal(0.0, NOISE_SIGMA, (t, n, n)))
    values = FLOW_SCALE * share[:, :, None] * share[:, None, :] * noise
    idx = np.arange(n)
    values[:, idx, idx] = 0.0

    gdp_text, gdp_read = _as_written(gdp.ravel())
    gdp_read = gdp_read.reshape(t, n)
    yr, ex, im = np.nonzero(values > spec.floor)
    flow_text, flow_read = _as_written(values[yr, ex, im])
    flows = np.zeros((t, n, n))
    flows[yr, ex, im] = flow_read

    flow_csv = _csv(
        "year,exporter,importer,value", years[yr].astype(str), codes[ex], codes[im], flow_text
    )
    gy, gc = np.divmod(np.arange(t * n), n)
    gdp_csv = _csv("year,country,gdp", years[gy].astype(str), codes[gc], gdp_text)
    panel = Panel(tuple(codes.tolist()), tuple(years.tolist()), gdp_read, flows)
    return panel, flow_csv, gdp_csv


def _csv(header: str, *columns: np.ndarray) -> bytes:
    rows = columns[0]
    for col in columns[1:]:
        rows = np.char.add(np.char.add(rows, ","), col)
    return ("\n".join([header, *rows.tolist()]) + "\n").encode("ascii")


def write_inputs(spec: Spec, seed: int, directory: Path) -> tuple[Panel, dict[str, str]]:
    """Write flows.csv and gdp.csv into directory; return panel and sha256s."""
    panel, flow_csv, gdp_csv = generate(spec, seed)
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, data in (("flows.csv", flow_csv), ("gdp.csv", gdp_csv)):
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return panel, digests
