"""The bundle contract as one command: which output bytes a change moves.

Usage: python tools/contract.py --against REV [--expect GLOB ...] [--rtol X]

It extracts ``src/`` of the git revision REV with ``git archive`` into a
fresh directory outside both trees, writes the seed-0 inputs of every
benchmark workload (``paper-159x20``, ``long-60x300`` and ``wide-1000x2``)
once (``perfbench/gen.py``), and runs one fixed list of command sequences
(``SEQUENCES``) over every year of each workload, once with REV's ``wnet``
and once with this tree's.  Each sequence writes into its own ``--out``.
Most run at the default parameters; ``params`` runs ``all`` with a link
threshold, the importer-GDP scheme, a CI level and a tail fraction off their
defaults, so that undefined statistics, the importer divisor and the normal
quantile's central branch are covered too.  ``rerun`` runs ``all``, then
``stats``, then ``verify`` into one ``--out``, so that the commit's renames
over existing files, its deletion of the files only the previous manifest
listed, and ``verify``'s report are compared too.

Then it compares the two sides file by file: every bundle file, and each
command's exit code, stdout and stderr, with the ``--out`` path masked.  A
file moves if its bytes differ or only one side has it.  The command exits 0
only if nothing moved, or if every moved file's path (``<workload>/
<sequence>/...``, as ``paper-159x20/build/bundle/counts.csv``) matches an
``--expect`` glob; otherwise 1.

A moved bundle table that is of the same ``LAYOUT`` kind on both sides is
read on both through this tree's ``read_bundle``, and for each float column
whose cells moved the command prints how many moved, the largest relative
gap and the largest gap in ulps.  A moved float further than ``--rtol``
(default 1e-12) from its old value, or one that became or stopped being
empty, fails the run even where an ``--expect`` glob matches its file.  The
last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-159x20", "long-60x300", "wide-1000x2")
SEED = 0
CUTS = ("--strong-cut", "0.5", "--moderate-cut", "0.1")
#: Each sequence's commands, run in order into one ``--out``.  ``report``
#: and ``verify`` read the bundle they find there; every other command reads
#: the inputs.
SEQUENCES = {
    "all": [["all"]],
    "stats": [["stats"]],
    "analyze": [["analyze"]],
    "build": [["build"]],
    "report": [["all"], ["report", *CUTS]],
    "raw": [["all", "--scheme", "raw"]],
    "params": [["all", "--scheme", "importer-gdp", "--threshold", "1e7", "--ci-level", "0.5",
                "--tail-fraction", "0.1"]],
    "rerun": [["all"], ["stats"], ["verify"]],
}
#: A command run by one side's ``wnet``, whose ``src`` is first on ``sys.path``.
RUNNER = "import sys; from wnet.cli import main; sys.exit(main(sys.argv[1:]))"


def extract(rev: str, into: Path) -> str:
    """Extract ``src/`` of ``rev`` into ``into`` and return the commit it names."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
        check=True, capture_output=True,
    ).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def write_inputs(into: Path) -> dict[str, tuple[Path, Path, str]]:
    """Each workload's flow and GDP files, written under ``into``, and its years as ``A:B``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from gen import FIRST_YEAR, write_inputs as generate
    from run import WORKLOADS as SPECS

    inputs = {}
    for name in WORKLOADS:
        spec = SPECS[name]
        generate(spec, SEED, into / name)
        years = f"{FIRST_YEAR}:{FIRST_YEAR + spec.years - 1}"
        inputs[name] = (into / name / "flows.csv", into / name / "gdp.csv", years)
    return inputs


def run_side(src: Path, inputs: dict, into: Path) -> None:
    """Run every sequence on every workload with the ``wnet`` under ``src``.

    Sequence ``s`` of workload ``w`` writes its bundle to ``into/w/s/bundle``
    and, for its ``k``-th command ``c``, ``into/w/s/<k>-<c>.txt``: the exit
    code, stdout and stderr, with the bundle's path written ``<out>``.
    """
    env = {**os.environ, "PYTHONPATH": str(src), "WNET_LOG": "WARNING"}
    for workload, (flows, gdp, years) in inputs.items():
        for sequence, commands in SEQUENCES.items():
            out = into / workload / sequence / "bundle"
            out.parent.mkdir(parents=True)
            for k, command in enumerate(commands, start=1):
                argv = [*command, "--out", str(out)]
                if command[0] not in ("report", "verify"):
                    argv += ["--flows", str(flows), "--gdp", str(gdp), "--years", years]
                done = subprocess.run(
                    [sys.executable, "-c", RUNNER, *argv],
                    cwd=out.parent, env=env, capture_output=True, text=True,
                )
                record = f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
                (out.parent / f"{k}-{command[0]}.txt").write_text(
                    record.replace(str(out), "<out>"), encoding="utf-8"
                )


def files_under(root: Path) -> set[str]:
    """The POSIX paths, relative to ``root``, of every file under it."""
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


def float_columns(path: Path) -> tuple[str, dict[str, np.ndarray]] | None:
    """The ``LAYOUT`` kind of the bundle table at ``path`` and its float
    columns, read through this tree's ``read_bundle``; None where its
    bundle's manifest does not name it or it does not read."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from wnet.errors import DataError
        from wnet.pipeline import LAYOUT, bundle_names, read_bundle, read_manifest
    finally:
        sys.path.pop(0)
    try:
        config = read_manifest(path.parent)["config"]
        keys = {name: key for key, name in bundle_names(config["analyses"], config["years"]).items()}
        key = keys[path.name]
        columns = read_bundle(path.parent, {key: path.name})[1][key]
    except (DataError, KeyError, TypeError):
        return None
    kind = key[0] if isinstance(key, tuple) else key
    header, types = LAYOUT[kind]
    return kind, {h: columns[h] for h, t in zip(header.split(","), types) if t == "f"}


def ulps_apart(a: float, b: float) -> int:
    """How many float64 steps lie between the finite ``a`` and ``b``."""
    def ordinal(x: float) -> int:
        bits = int(np.float64(x).view(np.int64))
        return bits if bits >= 0 else -(bits & (2**63 - 1))
    return abs(ordinal(a) - ordinal(b))


def float_gaps(base: Path, change: Path) -> dict[str, dict] | None:
    """How far the floats of a moved table moved: for each float column with
    a moved cell, the number of moved ``cells``, the largest relative gap
    ``rel`` and the largest gap in ``ulps``.  A cell that became or stopped
    being empty or infinite is infinitely far.  None unless both files are
    tables of one kind with the same number of rows."""
    before, after = float_columns(base), float_columns(change)
    if before is None or after is None or before[0] != after[0]:
        return None
    old, new = before[1], after[1]
    if len({len(c) for c in (*old.values(), *new.values())}) > 1:
        return None
    gaps = {}
    for column, a in old.items():
        moved = np.flatnonzero(a.view(np.int64) != new[column].view(np.int64))
        rel, ulps = 0.0, 0
        for x, y in zip(a[moved].tolist(), new[column][moved].tolist()):
            if not (math.isfinite(x) and math.isfinite(y)):
                rel = ulps = math.inf
                break
            top = max(abs(x), abs(y))
            rel = max(rel, abs(x - y) / top if top else 0.0)
            ulps = max(ulps, ulps_apart(x, y))
        if moved.size:
            gaps[column] = {"cells": int(moved.size), "rel": rel, "ulps": ulps}
    return gaps


def compare(base: Path, change: Path, expect: tuple[str, ...] = (), rtol: float = 1e-12) -> dict:
    """How the files under ``change`` stand against those under ``base``.

    Returns the number of files both sides hold with the same bytes
    (``identical``), and sorted lists of relative paths: the files whose bytes
    differ (``changed``), those only ``base`` or only ``change`` holds
    (``only_base``, ``only_change``), and of all these moved files, the ones
    that match no ``expect`` glob (``unexpected``).  ``floats`` maps each
    changed table whose floats moved to its ``float_gaps``, and
    ``beyond_rtol`` lists the tables with a float moved by more than
    ``rtol``.  ``passed`` is whether ``unexpected`` and ``beyond_rtol`` are
    both empty.
    """
    before, after = files_under(base), files_under(change)
    both = before & after
    changed = sorted(n for n in both if (base / n).read_bytes() != (change / n).read_bytes())
    only_base, only_change = sorted(before - after), sorted(after - before)
    moved = sorted({*changed, *only_base, *only_change})
    unexpected = [n for n in moved if not any(fnmatch.fnmatchcase(n, g) for g in expect)]
    floats = {n: gaps for n in changed if (gaps := float_gaps(base / n, change / n))}
    beyond = [n for n, gaps in floats.items() if any(g["rel"] > rtol for g in gaps.values())]
    return {
        "identical": len(both) - len(changed),
        "changed": changed,
        "only_base": only_base,
        "only_change": only_change,
        "unexpected": unexpected,
        "floats": floats,
        "beyond_rtol": beyond,
        "passed": not unexpected and not beyond,
    }


def gap_lines(floats: dict) -> list[str]:
    """One line per moved float column of ``compare``'s ``floats``."""
    return [
        f"floats: {name} {column}: {g['cells']} cells moved, largest relative gap {g['rel']:.3g}, "
        f"largest gap {g['ulps']} ulps"
        for name, gaps in floats.items() for column, g in gaps.items()
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--expect", action="append", default=[], metavar="GLOB",
                        help="a moved file that matches GLOB passes (repeatable)")
    parser.add_argument("--rtol", type=float, default=1e-12,
                        help="the largest relative gap a moved float may have (default 1e-12)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix="wnet-contract-"))
    try:
        commit = extract(args.against, work / "base-tree")
        inputs = write_inputs(work / "inputs")
        run_side(work / "base-tree" / "src", inputs, work / "base")
        run_side(ROOT / "src", inputs, work / "change")
        found = compare(work / "base", work / "change", tuple(args.expect), args.rtol)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    labels = {"changed": "changed", "only_base": f"only in {args.against}", "only_change": "only here"}
    moved = 0
    for kind, label in labels.items():
        moved += len(found[kind])
        for name in sorted(set(found[kind]) & set(found["unexpected"])):
            print(f"{label}: {name}")
    for line in gap_lines(found["floats"]):
        print(line)
    for name in found["beyond_rtol"]:
        print(f"floats moved beyond --rtol {args.rtol:g}: {name}")
    summary = {
        "against": args.against, "commit": commit, "workloads": list(WORKLOADS), "seed": SEED,
        "sequences": SEQUENCES, "expect": args.expect, "rtol": args.rtol, **found,
        "seconds": round(time.perf_counter() - start, 1),
    }
    print(f"{found['identical']} files identical, {moved} moved, "
          f"{len(found['unexpected'])} of them unexpectedly")
    print(json.dumps(summary, sort_keys=True))
    return 0 if found["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
