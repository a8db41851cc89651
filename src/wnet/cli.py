"""Command-line interface.

Subcommands: build (per-year link weight tables), stats (per-year node
statistics CSVs), analyze (distributional analyses), report (comparison
table from an existing bundle), all (everything plus comparison), verify
(re-hash a bundle against its manifest).

Exit codes: 0 success, 1 validation error, 2 data or I/O error (OSError),
3 internal error.  The WNET_LOG environment variable sets the logging level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Mapping, Sequence

from ._version import __version__
from .errors import DataError, ValidationError, WnetError
from .graph import WeightScheme, WeightVariant
from .pipeline import ANALYSES, SELECTABLE, PipelineConfig, relabel, run_pipeline, verify_bundle

logger = logging.getLogger(__name__)

_ANALYZE_DEFAULT = tuple(a for a in ANALYSES if a != "stats")


def _say(text: str, stream=None) -> None:
    """Print ``text`` to ``stream`` (stdout); a character the stream cannot encode,
    such as an undecodable byte of a file name, is printed escaped."""
    stream = stream or sys.stdout
    encoding = getattr(stream, "encoding", None) or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), file=stream)


def _parse_years(text: str) -> Sequence[int]:
    """Accept 'A:B' (inclusive, kept a range however long), 'Y', or a comma list 'Y1,Y2'."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            start, end = int(lo), int(hi)
            if end < start:
                raise ValidationError(f"empty year range {text!r}")
            return range(start, end + 1)
        if "," in text:
            return tuple(int(part) for part in text.split(",") if part.strip())
        if not text:
            return ()
        return (int(text),)
    except ValueError:
        raise ValidationError(f"cannot parse years {text!r}") from None


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value config file, UTF-8 with or without a byte-order
    mark; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        value = raw.strip().strip("\"'")
        values[key.strip().replace("-", "_")] = value
    return values


_FLOAT_FIELDS = ("ci_level", "tail_fraction", "bandwidth", "strong_cut", "moderate_cut")
_CONFIG_KEYS = {"flows", "gdp", "scheme", "threshold", "years", "analyses", "out", *_FLOAT_FIELDS}


def _merge_config(args: argparse.Namespace) -> None:
    """Fill argparse values that were left unset from the --config file."""
    path = _path_arg(args, "config", required=False)
    if path is None:
        return
    values = read_config_file(path)
    unknown = set(values) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    for key, raw in values.items():
        if getattr(args, key, None) is not None:
            continue  # explicit flag wins
        setattr(args, key, raw)


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--flows", help="bilateral flow CSV (year,exporter,importer,value)")
    parser.add_argument("--gdp", help="GDP CSV (year,country,gdp); optional under raw scheme")
    parser.add_argument(
        "--scheme",
        choices=[v.value for v in WeightVariant],
        help=f"weighting scheme (default {WeightScheme().variant.value})",
    )
    parser.add_argument(
        "--threshold",
        help=f"minimum flow for link existence (default {WeightScheme().threshold:g})",
    )
    parser.add_argument("--years", help="year selection: A:B inclusive, Y, or Y1,Y2,...")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--config", help="key = value config file; flags override it")


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--analyses",
        help=f"comma list from: {', '.join(SELECTABLE)}",
    )
    parser.add_argument(
        "--ci-level", help=f"two-sided CI coverage (default {PipelineConfig.ci_level:g})"
    )
    parser.add_argument(
        "--tail-fraction", help=f"Pareto tail fraction (default {PipelineConfig.tail_fraction:g})"
    )
    parser.add_argument("--bandwidth", help="fixed KDE bandwidth (default: Silverman)")


def _add_label_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strong-cut", help=f"|r| threshold for 'strong' (default {PipelineConfig.strong_cut:g})"
    )
    parser.add_argument(
        "--moderate-cut",
        help=f"|r| threshold for 'moderate' (default {PipelineConfig.moderate_cut:g})",
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises a usage error as a ValidationError, so
    that it is one ``error:`` line and exit 1, as any other validation error
    is.  Its subparsers are of its class."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wnet",
        description="Weighted trade-network statistics pipeline",
    )
    parser.add_argument("--version", action="version", version=f"wnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write per-year link weight tables")
    _add_input_flags(p_build)

    p_stats = sub.add_parser("stats", help="write per-year node statistics CSVs")
    _add_input_flags(p_stats)

    p_analyze = sub.add_parser("analyze", help="run distributional analyses")
    _add_input_flags(p_analyze)
    _add_analysis_flags(p_analyze)

    p_report = sub.add_parser("report", help="comparison table from an existing bundle")
    p_report.add_argument("--out", help="bundle directory to read and write")
    p_report.add_argument("--config", help="key = value config file; flags override it")
    _add_label_flags(p_report)

    p_all = sub.add_parser("all", help="full pipeline plus comparison table")
    _add_input_flags(p_all)
    _add_analysis_flags(p_all)
    _add_label_flags(p_all)

    p_verify = sub.add_parser("verify", help="re-hash a bundle against its manifest")
    p_verify.add_argument("--out", help="bundle directory to check")

    return parser


def _require(args: argparse.Namespace, name: str) -> str:
    value = getattr(args, name, None)
    if value is None:
        raise ValidationError(f"--{name.replace('_', '-')} is required")
    return value


def _path_arg(args: argparse.Namespace, name: str, required: bool = True) -> Path | None:
    """The path that ``--name`` gives.  An empty one is refused, not taken for
    the working directory, and so is one holding NUL, which no file name holds."""
    value = _require(args, name) if required else getattr(args, name, None)
    if value is not None and (not value or "\0" in value):
        raise ValidationError(f"--{name}: {'empty path' if not value else 'NUL in path'}")
    return None if value is None else Path(value)


def _float_arg(args: argparse.Namespace, name: str, default: float | None = None) -> float | None:
    value = getattr(args, name, None)
    if value is None:
        return default
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"--{name.replace('_', '-')}: bad number {value!r}") from None


def _pipeline_config(args: argparse.Namespace, analyses: frozenset[str]) -> PipelineConfig:
    default = WeightScheme()
    scheme = WeightScheme(
        WeightVariant.from_name(getattr(args, "scheme", None) or default.variant.value),
        _float_arg(args, "threshold", default.threshold),
    )
    config = PipelineConfig(
        flows=_path_arg(args, "flows"),
        gdp=_path_arg(args, "gdp", required=False),
        scheme=scheme,
        years=_parse_years(_require(args, "years")),
        out_dir=_path_arg(args, "out"),
        analyses=analyses,
        # A float flag left unset keeps the PipelineConfig default.
        **{name: value for name in _FLOAT_FIELDS if (value := _float_arg(args, name)) is not None},
    )
    config.validate()
    return config


def _selected_analyses(args: argparse.Namespace, default: tuple[str, ...]) -> frozenset[str]:
    raw = getattr(args, "analyses", None)
    if raw is None:
        return frozenset(default)
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def _cmd_build(args: argparse.Namespace) -> int:
    config = _pipeline_config(args, frozenset(("links",)))
    manifest, _ = run_pipeline(config)
    _say(f"wrote link tables for {len(manifest['normalizers'])} years to {config.out_dir}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    config = _pipeline_config(args, frozenset(("stats",)))
    manifest, _ = run_pipeline(config)
    _say(f"wrote node statistics for {len(manifest['normalizers'])} years to {config.out_dir}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _pipeline_config(args, _selected_analyses(args, _ANALYZE_DEFAULT))
    manifest, _ = run_pipeline(config)
    _say(f"wrote {len(manifest['files'])} files to {config.out_dir}")
    return 0


def _print_comparison(columns: Mapping[str, Sequence]) -> None:
    """One line per row of the comparison table's ``columns``."""
    for cells in zip(*columns.values()):
        row = dict(zip(columns, cells))
        _say(
            f"{row['view']}: assortativity {row['assortativity_pair']} "
            f"r={row['assortativity_r']:+.3f} ({row['assortativity_label']}); "
            f"clustering {row['clustering_pair']} "
            f"r={row['clustering_r']:+.3f} ({row['clustering_label']})"
        )


def _cmd_report(args: argparse.Namespace) -> int:
    out_dir = _path_arg(args, "out")
    cuts = _float_arg(args, "strong_cut"), _float_arg(args, "moderate_cut")
    _print_comparison(relabel(out_dir, *cuts))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    config = _pipeline_config(args, _selected_analyses(args, ANALYSES))
    _, tables = run_pipeline(config)
    _print_comparison(tables.get("comparison", {}))
    _say(f"bundle written to {config.out_dir}")
    return 0


#: How ``verify`` names each kind of entry it reports.
_VERIFY_LABELS = {
    "missing": "missing",
    "changed": "changed",
    "unlisted": "not in the manifest",
    "staging": "staging left by an interrupted run",
}


def _cmd_verify(args: argparse.Namespace) -> int:
    out_dir = _path_arg(args, "out")
    found = verify_bundle(out_dir)
    for kind, label in _VERIFY_LABELS.items():
        for name in found[kind]:
            _say(f"{label}: {name}")
    bad = len(found["missing"]) + len(found["changed"])
    listed = bad + len(found["intact"])
    if bad:
        raise DataError(f"{bad} of {listed} listed files in {out_dir} are missing or changed")
    _say(f"verified {listed} files in {out_dir}")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "stats": _cmd_stats,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
    "all": _cmd_all,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("WNET_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=level)
    try:
        args = build_parser().parse_args(argv)
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help and --version, which print and exit
        return 0 if exc.code in (0, None) else 1
    except ValidationError as exc:
        _say(f"error: {exc}", sys.stderr)
        return 1
    except (WnetError, OSError) as exc:
        _say(f"error: {exc}", sys.stderr)
        return 2
    except Exception as exc:
        logger.exception("internal error")
        _say(f"internal error: {exc}", sys.stderr)
        return 3


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
