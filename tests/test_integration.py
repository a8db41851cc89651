"""Full-scale pipeline run on a synthetic gravity-style world.

Not a reproduction of any published numbers; checks that the end-to-end
machinery at realistic size (159 nodes) is fast and produces the expected
structural signatures of a dense, size-heterogeneous trade network.
"""

from __future__ import annotations

import time

import numpy as np

from wnet import (
    WeightScheme,
    build_directed,
    correlation_series,
    load_panel,
    node_stats,
    symmetrize,
)

from conftest import write_gravity_panel


def test_gravity_world_structure_and_speed(tmp_path):
    flows, sizes = write_gravity_panel(tmp_path)
    start = time.perf_counter()
    panel = load_panel(flows, sizes)
    tables = {
        year: node_stats(symmetrize(build_directed(panel, year, WeightScheme())))
        for year in panel.years
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0

    table = tables[2000]
    assert len(table["country"]) == 159
    mean_nd = float(np.mean(table["nd"]))
    assert 60 <= mean_nd <= 159  # densely connected
    assert float(np.nanmean(table["bcc"])) > 0.6  # high binary clustering
    assert float(np.nanmean(table["wcc"])) < 0.05  # weighted clustering far smaller

    # dense size-heterogeneous networks are strongly disassortative in the
    # binary view and much less so in the weighted view
    nd_annd = np.mean(correlation_series(tables, "ND-ANND")["r"])
    ns_anns = np.mean(correlation_series(tables, "NS-ANNS")["r"])
    assert nd_annd < -0.8
    assert nd_annd < ns_anns < 0.0
    bcc_nd = np.mean(correlation_series(tables, "BCC-ND")["r"])
    assert bcc_nd < -0.6
    assert (correlation_series(tables, "WCC-NS")["r"] > 0).all()
