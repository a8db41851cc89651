"""Checks on one `wnet all` bundle, made outside every timed region.

1. Every file listed in ``manifest.json`` re-hashes to its digest, and the
   directory holds no file the manifest does not list.
2. ND, NS and BCC of the last year, recomputed in numpy from the
   generator's own arrays, match ``stats_<year>.csv``: exactly for ND and
   BCC, to a relative 1e-12 for NS (a sum whose order may differ).

Agreement of the manifest digest across runs is checked by the caller.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gen import Panel

NS_RTOL = 1e-12


@dataclass
class BundleCheck:
    """What one bundle check found."""

    problems: list[str] = field(default_factory=list)
    manifest_sha256: str = ""
    files: int = 0
    bytes: int = 0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_stats(panel: Panel, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ND, NS and BCC of year index t under the exporter-gdp scheme."""
    flows = panel.flows[t]
    directed = flows > 0
    a = (directed | directed.T).astype(float)
    nd = a.sum(axis=1)
    w_dir = np.where(directed, flows / panel.gdp[t][:, None], 0.0)
    averaged = 0.5 * (w_dir + w_dir.T)
    ns = (averaged / averaged.max()).sum(axis=1)
    triangles = np.einsum("ij,ij->i", a @ a, a)
    bcc = np.full(nd.shape, np.nan)
    np.divide(triangles, nd * (nd - 1), out=bcc, where=nd > 1)
    return nd, ns, bcc


def _column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([float(r[name]) if r[name] else np.nan for r in rows])


def _check_stats(path: Path, panel: Panel) -> list[str]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        codes = tuple(r["country"] for r in rows)
        nd, ns, bcc = (_column(rows, name) for name in ("nd", "ns", "bcc"))
    except (OSError, KeyError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if codes != panel.codes:
        return [f"{path.name}: country rows differ from the generated registry"]
    ref_nd, ref_ns, ref_bcc = reference_stats(panel, len(panel.years) - 1)
    problems = []
    if not np.array_equal(nd, ref_nd):
        problems.append(f"{path.name}: ND differs from the reference")
    if not np.allclose(ns, ref_ns, rtol=NS_RTOL, atol=0.0):
        worst = float(np.max(np.abs(ns - ref_ns) / np.abs(ref_ns)))
        problems.append(f"{path.name}: NS differs from the reference (rel {worst:.3g})")
    if not np.array_equal(bcc, ref_bcc, equal_nan=True):
        problems.append(f"{path.name}: BCC differs from the reference")
    return problems


def check_bundle(out_dir: Path, panel: Panel) -> BundleCheck:
    result = BundleCheck()
    manifest_path = out_dir / "manifest.json"
    try:
        raw = manifest_path.read_bytes()
        listed = json.loads(raw)["files"]
        present = {p.name: p for p in out_dir.iterdir()}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.problems.append(f"manifest.json unreadable: {exc}")
        return result
    result.manifest_sha256 = hashlib.sha256(raw).hexdigest()
    result.files = len(present)
    result.bytes = sum(p.stat().st_size for p in present.values())
    unlisted = sorted(set(present) - set(listed) - {"manifest.json"})
    if unlisted:
        result.problems.append(f"files not in the manifest: {', '.join(unlisted[:5])}")
    for name, digest in sorted(listed.items()):
        if name not in present:
            result.problems.append(f"{name}: listed but missing")
        elif sha256_file(present[name]) != digest:
            result.problems.append(f"{name}: sha256 differs from the manifest")
    result.problems += _check_stats(out_dir / f"stats_{panel.years[-1]}.csv", panel)
    return result
