"""The bundle contract as one command: which output bytes a change moves.

Usage: python tools/contract.py --against REV [--expect GLOB ...]

It extracts ``src/`` of the git revision REV with ``git archive`` into a
fresh directory outside both trees, writes the seed-0 inputs of the
``paper-159x20`` and ``long-60x300`` benchmark workloads once
(``perfbench/gen.py``), and runs one fixed list of command sequences
(``SEQUENCES``) over every year of each workload, once with REV's ``wnet``
and once with this tree's.  Each sequence writes into its own ``--out``.

Then it compares the two sides file by file: every bundle file, and each
command's exit code, stdout and stderr, with the ``--out`` path masked.  A
file moves if its bytes differ or only one side has it.  The command exits 0
only if nothing moved, or if every moved file's path (``<workload>/
<sequence>/...``, as ``paper-159x20/build/bundle/counts.csv``) matches an
``--expect`` glob; otherwise 1.  The last line of its stdout is a JSON
summary.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-159x20", "long-60x300")
SEED = 0
CUTS = ("--strong-cut", "0.5", "--moderate-cut", "0.1")
#: Each sequence's commands, run in order into one ``--out``.  ``report``
#: reads the bundle it finds there; every other command reads the inputs.
SEQUENCES = {
    "all": [["all"]],
    "stats": [["stats"]],
    "analyze": [["analyze"]],
    "build": [["build"]],
    "report": [["all"], ["report", *CUTS]],
    "raw": [["all", "--scheme", "raw"]],
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
                if command[0] != "report":
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


def compare(base: Path, change: Path, expect: tuple[str, ...] = ()) -> dict:
    """How the files under ``change`` stand against those under ``base``.

    Returns the number of files both sides hold with the same bytes
    (``identical``), and sorted lists of relative paths: the files whose bytes
    differ (``changed``), those only ``base`` or only ``change`` holds
    (``only_base``, ``only_change``), and of all these moved files, the ones
    that match no ``expect`` glob (``unexpected``).  ``passed`` is whether
    ``unexpected`` is empty.
    """
    before, after = files_under(base), files_under(change)
    both = before & after
    changed = sorted(n for n in both if (base / n).read_bytes() != (change / n).read_bytes())
    only_base, only_change = sorted(before - after), sorted(after - before)
    moved = sorted({*changed, *only_base, *only_change})
    unexpected = [n for n in moved if not any(fnmatch.fnmatchcase(n, g) for g in expect)]
    return {
        "identical": len(both) - len(changed),
        "changed": changed,
        "only_base": only_base,
        "only_change": only_change,
        "unexpected": unexpected,
        "passed": not unexpected,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--expect", action="append", default=[], metavar="GLOB",
                        help="a moved file that matches GLOB passes (repeatable)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix="wnet-contract-"))
    try:
        commit = extract(args.against, work / "base-tree")
        inputs = write_inputs(work / "inputs")
        run_side(work / "base-tree" / "src", inputs, work / "base")
        run_side(ROOT / "src", inputs, work / "change")
        found = compare(work / "base", work / "change", tuple(args.expect))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    labels = {"changed": "changed", "only_base": f"only in {args.against}", "only_change": "only here"}
    moved = 0
    for kind, label in labels.items():
        moved += len(found[kind])
        for name in sorted(set(found[kind]) & set(found["unexpected"])):
            print(f"{label}: {name}")
    summary = {
        "against": args.against, "commit": commit, "workloads": list(WORKLOADS), "seed": SEED,
        "sequences": SEQUENCES, "expect": args.expect, **found,
        "seconds": round(time.perf_counter() - start, 1),
    }
    print(f"{found['identical']} files identical, {moved} moved, "
          f"{len(found['unexpected'])} of them unexpectedly")
    print(json.dumps(summary, sort_keys=True))
    return 0 if found["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
