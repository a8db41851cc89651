"""wnet benchmark: time to a verified `wnet all` bundle.

Run from the repository root:

    python3 perfbench/run.py --workload paper-159x20 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --self-test         # a corrupted bundle must count as failed

Each run writes a synthetic gravity panel (``gen.py``) into
``.bench_work/<workload>/`` before any timing starts.  It then repeats
iterations for ``--seconds``, starting another only while it is expected to
end in time.  One iteration spawns a fresh interpreter (``child.py``) that
imports ``wnet.cli`` from ``src/`` and calls ``wnet.cli.main(["all", ...])``
once, after which the bundle is checked (``check.py``) and its
``manifest.json`` digest compared with the other iterations, or at the
default seed with the digest pinned in ``baseline.json``.  The load is a
closed loop: one client, one iteration at a time, no extra threads or
processes.  BLAS threading is left at its default and recorded.

End-to-end metrics (``--trace 0``), each the median over the iterations:

    wall_s       wall time of the main(["all", ...]) call, after the import
    setup_s      from spawning the child until `import wnet.cli` returns
    peak_rss_mb  the child's ru_maxrss over the whole iteration

An iteration fails when the child exits non-zero or a bundle check fails;
failure_rate = failed / attempted is printed with the metrics and carried
by the ``attempted`` and ``failed`` fields of the result line.

``--trace 1`` alternates untraced and traced iterations.  A traced child
runs under ``python -X importtime`` with the span recorder (``spans.py``)
installed, and the per-layer metrics are the medians over traced
iterations.  ``<span>_s`` is the summed duration of every call to that
name; ``self_s`` subtracts the time covered by the span's child spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
every run, with machine facts and input digests, goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from check import check_bundle
from gen import Spec, write_inputs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60

#: Why each workload exists is recorded in BENCHMARK.json.  wide-1000x2 is
#: left out of BENCHMARK.json: on a shared 2-vCPU host its memory-bound
#: integer matmul runs 1.5-2x slower for minutes at a time, so the median
#: of one run moves by far more than any bound a gate could hold.
WORKLOADS = {
    # 159 countries x 20 years (~345k flow rows in, 91 files out): the
    # paper's scale; ingest does most of the work.
    "paper-159x20": Spec(nodes=159, years=20, floor=4e4),
    # 1000 countries x 2 years (~42k rows a year): the O(n^3) clustering
    # products dominate and ingest does little.
    "wide-1000x2": Spec(nodes=1000, years=2, floor=8e5),
    # 60 countries x 300 years (~141k rows in, 1211 files out): per-year
    # analyses and bundle writing dominate.  The floor and the narrow GDP
    # spread keep >= 55 non-isolated countries every year; the tail fit
    # needs 50.
    "long-60x300": Spec(nodes=60, years=300, floor=2e8, gdp_sigma=0.5),
}

#: Seed whose manifest.json digest is pinned in baseline.json.
BASELINE = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
DEFAULT_SEED = BASELINE["default_seed"]

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Span name -> per-layer metric of its summed duration.
SPAN_TIMES = {
    "ingest.load_panel": "ingest.load_panel_s",
    "ingest.parse_flows": "ingest.parse_flows_s",
    "ingest.parse_sizes": "ingest.parse_sizes_s",
    "ingest.assemble_panel": "ingest.assemble_panel_s",
    "graph.build_directed": "graph.build_directed_s",
    "graph.symmetrize": "graph.symmetrize_s",
    "graph.symmetry_index": "graph.symmetry_index_s",
    "stats.node_stats": "stats.node_stats_s",
    "stats.bcc": "stats.bcc_s",
    "stats.wcc": "stats.wcc_s",
    "stats.annd": "stats.annd_s",
    "stats.anns": "stats.anns_s",
    "stats.to_csv": "stats.to_csv_s",
    "distributions.moments": "distributions.moments_s",
    "distributions.correlation_series": "distributions.correlation_series_s",
    "distributions.kde": "distributions.kde_s",
    "distributions.rank_size": "distributions.rank_size_s",
    "distributions.fit_tail": "distributions.fit_tail_s",
    "pipeline.run_pipeline": "pipeline.run_pipeline_s",
    "cli.main": "cli.main_s",
}
IMPORTED_MODULES = ("cli", "pipeline", "ingest", "graph", "stats", "distributions")

PER_LAYER = {
    **{metric: "s" for metric in SPAN_TIMES.values()},
    "ingest.flow_rows": "count",
    "ingest.input_mb": "MB",
    "ingest.rows_per_s": "1/s",
    "graph.directed_links": "count",
    "graph.undirected_links": "count",
    "stats.node_degree_calls": "count",
    "stats.kernel_gflop": "GFLOP",
    "stats.kernel_gflop_per_s": "GFLOP/s",
    "distributions.kde_calls": "count",
    "pipeline.self_s": "s",
    "pipeline.files_written": "count",
    "pipeline.output_mb": "MB",
    "cli.self_s": "s",
    **{f"{module}.import_s": "s" for module in IMPORTED_MODULES},
    "trace.overhead_s": "s",
}


@dataclass
class Sample:
    """One iteration: what the child reported and what the checks found."""

    traced: bool
    problems: list[str] = field(default_factory=list)
    wall_s: float = float("nan")
    setup_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    manifest_sha256: str = ""
    files: int = 0
    output_bytes: int = 0
    spans: list[dict] = field(default_factory=list)
    import_s: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Generates one workload's inputs, then runs and checks iterations."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.spec = WORKLOADS[name]
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.panel, self.inputs_sha256 = write_inputs(self.spec, seed, self.work)
        self.input_bytes = sum((self.work / f).stat().st_size for f in self.inputs_sha256)
        self.expected_manifest = (
            BASELINE["manifest_sha256"][name] if seed == DEFAULT_SEED else None
        )
        self.env = dict(os.environ)
        self.env.pop("WNET_LOG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.argv = [
            "all",
            "--flows", "flows.csv",
            "--gdp", "gdp.csv",
            "--years", f"{self.panel.years[0]}:{self.panel.years[-1]}",
            "--out", "out",
        ]

    def _spawn(self, traced: bool, import_only: bool) -> tuple[dict | None, float, str]:
        """Run child.py once; return its report, spawn time and stderr text."""
        result = self.work / "child.json"
        result.unlink(missing_ok=True)
        request = {
            "argv": self.argv,
            "result": str(result),
            "trace": traced,
            "import_only": import_only,
        }
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "child.py"), json.dumps(request)]
        err_path = self.work / "child.err"
        with open(self.work / "child.out", "wb") as out, open(err_path, "wb") as err:
            spawned = time.perf_counter()
            try:
                subprocess.run(
                    cmd, cwd=self.work, env=self.env, stdout=out, stderr=err,
                    timeout=CHILD_TIMEOUT_S, check=False,
                )
            except subprocess.TimeoutExpired:
                pass  # run() has killed and reaped the child; no report below
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        try:
            report = json.loads(result.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = None
        return report, spawned, stderr

    def warm_up(self) -> None:
        """Import once untimed, so bytecode caches exist as they do for users."""
        report, _, stderr = self._spawn(traced=False, import_only=True)
        if report is None:
            raise SystemExit(f"error: cannot import wnet.cli from {ROOT / 'src'}\n{stderr[-2000:]}")

    def iterate(self, traced: bool = False, corrupt: bool = False) -> Sample:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        sample = Sample(traced)
        report, spawned, stderr = self._spawn(traced, import_only=False)
        if report is None or report.get("exit_code") != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no report"]
            sample.problems.append(f"child failed: {tail[0]}")
            return sample
        if not Path(report["wnet_file"]).resolve().is_relative_to(ROOT / "src"):
            sample.problems.append(f"wnet imported from {report['wnet_file']}, not src/")
        sample.wall_s = report["wall_s"]
        sample.setup_s = report["ready"] - spawned
        sample.peak_rss_mb = report["maxrss_kb"] / 1024
        if traced:
            sample.spans = report["spans"]
            sample.import_s = parse_importtime(stderr)
        if corrupt:
            corrupt_one_byte(self.work / "out" / f"stats_{self.panel.years[-1]}.csv")
        found = check_bundle(self.work / "out", self.panel)
        sample.problems += found.problems
        sample.manifest_sha256 = found.manifest_sha256
        sample.files = found.files
        sample.output_bytes = found.bytes
        return sample

    def run(self, seconds: float, trace: bool) -> list[Sample]:
        """Iterate while the next iteration is expected to end within `seconds`.

        Runs at least one iteration, and when traced at least one of each kind.
        """
        self.warm_up()
        samples: list[Sample] = []
        start = last = time.perf_counter()
        while True:
            samples.append(self.iterate(traced=trace and len(samples) % 2 == 1))
            now = time.perf_counter()
            if 2 * now - last - start > seconds and len(samples) >= 1 + trace:
                break
            last = now
        reference = self.expected_manifest
        for sample in samples:
            if not sample.manifest_sha256:
                continue
            if reference is None:
                reference = sample.manifest_sha256
            elif sample.manifest_sha256 != reference:
                what = "the pinned digest" if self.expected_manifest else "the first run"
                sample.problems.append(f"manifest.json sha256 differs from {what}")
        return samples


def corrupt_one_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds per wnet module from `-X importtime`, nested wnet modules excluded."""
    pending: dict[int, list[tuple[str, float, list]]] = defaultdict(list)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        name = name_field.rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = (name.strip(), int(cumulative) / 1e6, pending.pop(depth + 1, []))
        pending[depth].append(node)

    def nested_wnet(children: list) -> float:
        return sum(
            cum if name.startswith("wnet.") else nested_wnet(grand)
            for name, cum, grand in children
        )

    seconds: dict[str, float] = {}
    stack = [node for nodes in pending.values() for node in nodes]
    while stack:
        name, cum, children = stack.pop()
        if name.startswith("wnet."):
            seconds[name.removeprefix("wnet.")] = cum - nested_wnet(children)
        stack.extend(children)
    return seconds


def span_metrics(
    sample: Sample, spec: Spec, input_bytes: int, untraced_wall_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    covered: dict[int, float] = defaultdict(float)
    for span in sample.spans:
        duration = span["end"] - span["start"]
        total[span["name"]] += duration
        calls[span["name"]] += 1
        for key, value in span.get("counts", {}).items():
            counts[f"{span['name']}.{key}"] += value
        if span["parent"] is not None:
            covered[span["parent"]] += duration
    self_time: dict[str, float] = defaultdict(float)
    for span in sample.spans:
        self_time[span["name"]] += span["end"] - span["start"] - covered[span["id"]]

    m = {metric: total[name] for name, metric in SPAN_TIMES.items()}
    rows = counts["ingest.parse_flows.rows"]
    kernel_s = total["stats.bcc"] + total["stats.wcc"]
    # Each of bcc and wcc cubes an n x n matrix: two products of 2 n^3 flops.
    gflop = 4 * spec.nodes**3 * (calls["stats.bcc"] + calls["stats.wcc"]) / 1e9
    m.update({
        "ingest.flow_rows": rows,
        "ingest.input_mb": input_bytes / 1e6,
        "ingest.rows_per_s": rows / m["ingest.load_panel_s"] if m["ingest.load_panel_s"] else 0.0,
        "graph.directed_links": counts["graph.build_directed.links"],
        "graph.undirected_links": counts["graph.symmetrize.links"],
        "stats.node_degree_calls": calls["stats.node_degree"],
        "stats.kernel_gflop": gflop,
        "stats.kernel_gflop_per_s": gflop / kernel_s if kernel_s else 0.0,
        "distributions.kde_calls": calls["distributions.kde"],
        "pipeline.self_s": self_time["pipeline.run_pipeline"],
        "pipeline.files_written": sample.files,
        "pipeline.output_mb": sample.output_bytes / 1e6,
        "cli.self_s": self_time["cli.main"],
        "trace.overhead_s": sample.wall_s - untraced_wall_s,
    })
    for module in IMPORTED_MODULES:
        m[f"{module}.import_s"] = sample.import_s.get(module, 0.0)
    return m


def summarize(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g} min={min(values):.4g} max={max(values):.4g}"


def evaluate(runner: Runner, samples: list[Sample], trace: bool) -> tuple[dict, dict]:
    """Print the metric table; return (metrics, record for the results file)."""
    good = [s for s in samples if s.ok]
    failed = len(samples) - len(good)
    print(f"== {runner.name} seed={runner.seed} trace={int(trace)}")
    for s in samples:
        for problem in s.problems:
            print(f"   FAILED run: {problem}")
    untraced = [s for s in good if not s.traced]
    traced = [s for s in good if s.traced]
    if not trace:
        table = {name: [getattr(s, name) for s in untraced] for name in END_TO_END}
        units = END_TO_END
    elif untraced and traced:
        untraced_wall_s = statistics.median(s.wall_s for s in untraced)
        per_run = [
            span_metrics(s, runner.spec, runner.input_bytes, untraced_wall_s) for s in traced
        ]
        table = {name: [m[name] for m in per_run] for name in PER_LAYER}
        units = PER_LAYER
    else:
        table, units = {}, {}
    metrics: dict[str, dict] = {}
    for name, values in table.items():
        if values:
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"   {name:36s} {value:12.6g} {units[name]:8s} median, {summarize(values)}")
    rate = failed / len(samples)
    print(f"   {'failure_rate':36s} {rate:12.6g} {'':8s} {failed} of {len(samples)} runs failed")
    record = {
        "workload": runner.name,
        "seed": runner.seed,
        "trace": trace,
        "inputs_sha256": runner.inputs_sha256,
        "manifest_sha256": sorted({s.manifest_sha256 for s in samples if s.manifest_sha256}),
        "samples": [
            {k: getattr(s, k) for k in ("traced", "wall_s", "setup_s", "peak_rss_mb", "problems")}
            for s in samples
        ],
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    return metrics, record


def _blas_runtime() -> dict:
    """OpenBLAS core type and default thread count, read from the loaded library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    facts: dict = {"libraries": [Path(lib).name for lib in libs]}
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    facts["threads"] = threads()
                    facts["config"] = config().decode()
                    return facts
    return facts


def _filesystem(path: Path) -> str:
    best, fstype = "", "unknown"
    with open("/proc/self/mounts", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return fstype


def machine_facts() -> dict:
    model = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": _blas_runtime(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "work_filesystem": _filesystem(WORK),
    }


def write_record(record: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def self_test(name: str, seed: int) -> int:
    """A clean iteration must pass and one with a flipped bundle byte must fail."""
    runner = Runner(name, seed)
    runner.warm_up()
    samples = [runner.iterate(), runner.iterate(corrupt=True)]
    _, record = evaluate(runner, samples, trace=False)
    passed = samples[0].ok and record["failed"] == 1
    print("self-test " + ("passed" if passed else "FAILED"))
    return 0 if passed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "wnet" / "cli.py").is_file():
        print(f"error: no wnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test("paper-159x20" if args.workload == "all" else args.workload, args.seed)

    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    complete = True
    metrics: dict[str, dict] = {}
    for name in names:
        runner = Runner(name, args.seed)
        print(f"inputs {name} " + json.dumps(runner.inputs_sha256, sort_keys=True))
        samples = runner.run(args.seconds, bool(args.trace))
        found, record = evaluate(runner, samples, bool(args.trace))
        write_record({**record, "seconds": args.seconds, "machine": facts})
        attempted += record["attempted"]
        failed += record["failed"]
        complete &= found.keys() == (PER_LAYER if args.trace else END_TO_END).keys()
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
