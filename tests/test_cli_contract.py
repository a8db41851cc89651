"""The CLI's exit-code contract, fuzzed over `all`'s float flags on valid
inputs, over every command's flags, over config files and over edited bundles.

Every run must end in exit 0, 1 or 2, and a refusal (1 or 2) must print
exactly one `error:` line to stderr.  Exit 3, an internal error, must never
happen, not even with numpy's RuntimeWarnings raised as errors.  A `report`
that refuses an edited bundle leaves its `comparison.csv` and `manifest.json`
as they were.  Each command's flags are those ``cli.build_parser()`` gives
it, so a flag added later is fuzzed too.  Each flag is passed as
`--flag=value`, so a value that starts with `-` (`-inf`, `-0`) reaches wnet
and is not taken for an option.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import warnings
from itertools import count

import pytest

from wnet.cli import build_parser, main
from wnet.pipeline import SELECTABLE

from conftest import write_panel_csvs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_SIGN = st.sampled_from(["", "-", "+"])
#: Float text from every decade, the subnormals, both zeros, NaN, the
#: infinities, text that is no number, and plain values in [0, 1] that most
#: flags accept.
VALUES = st.one_of(
    st.builds("{}{}e{}".format, _SIGN, st.integers(1, 9), st.integers(-330, 310)),
    st.builds(
        "{}{!r}".format, _SIGN, st.floats(5e-324, 2.0**-1022, exclude_max=True)
    ),
    st.sampled_from(["0", "-0", "0.0", "-0.0", "+0", "0e-400"]),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-Infinity"]),
    st.text(max_size=12),
    st.floats(0, 1).map(repr),
)


def run(capsys, argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, RuntimeWarnings raised as errors,
    held to the contract."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (code, err)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, err


def command_flags() -> dict[str, dict[str, argparse.Action]]:
    """Each command's flags, as the parser defines them, but ``--help``."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        command: {a.option_strings[-1]: a for a in parser._actions if a.dest != "help"}
        for command, parser in commands.choices.items()
    }


#: Where a path flag points, resolved for each run (see ``resolve``): the
#: run's own input (a file to read, a new directory to write, or the bundle to
#: report on), a missing path, an empty directory, a file where a directory
#: is wanted, an existing bundle, or nothing.
PATHS = st.sampled_from(["input", "missing", "directory", "file", "bundle", ""])
#: ``--years`` from a small grammar: ranges, single years and lists, in and out
#: of the panel's 1999-2000, reversed, empty and malformed.
YEARS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["1999", "2000", "1990", "", "-1", "0", "x", "99999999999999999999"]),
    st.sampled_from([":", ",", "", ",,", ":2000"]),
    st.sampled_from(["2000", "1999", "", "2030", " 2000", "a"]),
)
#: ``--analyses``: lists of known names, unknown names and empty parts.
ANALYSIS_LISTS = st.lists(
    st.sampled_from([*SELECTABLE, "bogus", "", " ", "Stats"]), max_size=4
).map(",".join)


def values_for(flag: str, action: argparse.Action):
    """The values drawn for ``flag``: by its kind where the fuzz knows it, and
    any float text for a flag it does not."""
    if flag in ("--flows", "--gdp", "--out", "--config"):
        return PATHS
    if flag == "--years":
        return YEARS
    if flag == "--analyses":
        return ANALYSIS_LISTS
    if action.choices:
        return st.sampled_from([*action.choices, "bogus", ""])
    return VALUES


FLAGS = command_flags()
#: The flags of ``all`` that take a float: every flag the fuzz has no kind for.
FLOAT_FLAGS = tuple(flag for flag, action in FLAGS["all"].items() if values_for(flag, action) is VALUES)


@st.composite
def invocations(draw) -> tuple[str, dict[str, str]]:
    """A command and its flags: a run that reaches every stage, with one input
    left out in about one draw in eight, and some flags drawn from
    ``values_for``."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {flag: "input" for flag in ("--flows", "--gdp", "--out") if flag in FLAGS[command]}
    if "--years" in FLAGS[command]:
        flags["--years"] = "1999:2000"
    if flags and draw(st.integers(0, 7)) == 7:
        flags.pop(draw(st.sampled_from(sorted(flags))))
    drawn = draw(st.sets(st.sampled_from(sorted(FLAGS[command])), max_size=3))
    flags.update({flag: draw(values_for(flag, FLAGS[command][flag])) for flag in sorted(drawn)})
    return command, flags


def test_the_parser_gives_every_command_its_flags():
    assert sorted(FLAGS) == ["all", "analyze", "build", "report", "stats", "verify"]
    assert set(FLAGS["build"]) == {"--flows", "--gdp", "--scheme", "--threshold", "--years", "--out",
                                   "--config"}
    assert {"--analyses", "--bandwidth", "--strong-cut"} <= set(FLAGS["all"])
    assert set(FLAGS["verify"]) == {"--out"}
    assert set(FLOAT_FLAGS) >= {
        "--threshold", "--ci-level", "--tail-fraction", "--bandwidth", "--strong-cut", "--moderate-cut",
    }


def test_float_flags_exit_0_1_or_2_with_one_error_line(tmp_path, capsys):
    flows, gdp = write_panel_csvs(tmp_path)
    runs = count()

    @hypothesis.settings(max_examples=1000, deadline=None)
    @hypothesis.given(st.dictionaries(st.sampled_from(FLOAT_FLAGS), VALUES, min_size=1))
    def check(flags):
        run(capsys, [
            "all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
            "--out", str(tmp_path / f"out{next(runs)}"),
            *(f"{flag}={value}" for flag, value in flags.items()),
        ])

    check()


def test_every_commands_flags_exit_0_1_or_2_with_one_error_line(tmp_path, capsys):
    flows, gdp = write_panel_csvs(tmp_path)
    base = tmp_path / "base"
    assert main(["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
                 "--out", str(base)]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("ci_level = 0.8\n", encoding="utf-8")
    runs = count()

    def resolve(command: str, flag: str, where: str, at: int) -> str:
        """The path that ``where`` (see ``PATHS``) names for ``flag`` in run ``at``."""
        if where == "input":
            if flag != "--out":
                return str({"--flows": flows, "--gdp": gdp, "--config": config}[flag])
            if command not in ("report", "verify"):
                return str(tmp_path / f"out{at}")
            where = "bundle"
        if where == "bundle":
            copy = tmp_path / f"bundle{at}"
            if not copy.exists():
                shutil.copytree(base, copy)
            return str(copy)
        if where == "directory":
            (tmp_path / f"dir{at}").mkdir(exist_ok=True)
            return str(tmp_path / f"dir{at}")
        return {"missing": str(tmp_path / f"missing{at}" / "x"), "file": str(flows)}.get(where, where)

    @hypothesis.settings(max_examples=600, deadline=None)
    @hypothesis.given(invocations())
    def check(invocation):
        command, flags = invocation
        at = next(runs)
        paths = {"--flows", "--gdp", "--out", "--config"}
        run(capsys, [command, *(
            f"{flag}={resolve(command, flag, value, at) if flag in paths else value}"
            for flag, value in flags.items()
        )])

    check()


#: Config keys: the float fields (underscored and dashed), the other keys a
#: run reads from a config file, and keys that no run knows.
CONFIG_KEYS = st.sampled_from([
    "ci_level", "tail_fraction", "bandwidth", "strong_cut", "moderate_cut",
    "ci-level", "tail-fraction", "strong-cut", "moderate-cut",
    "scheme", "threshold", "years", "analyses", "jobs", "bogus", "",
])
#: Values: ``VALUES``, and some that these keys accept.
CONFIG_VALUES = VALUES | st.sampled_from([
    "1999:2000", "2000", "1999,2000", "2000:1999", "raw", "exporter-gdp", "importer-gdp",
    "stats", "moments,density", "correlations,tailfit", "'0.5'", '"2000"',
])
#: Lines that are not ``key = value`` text: any bytes (mostly not UTF-8), NUL,
#: a byte-order mark at the start or inside a line, and no ``=``.
RAW_LINES = st.binary(max_size=16) | st.sampled_from([
    b"\xff", b"ci_level = 0.5\xfe", b"\x00", b"ci_level = \x00", b"years\x00 = 2000",
    b"\xef\xbb\xbf", b"\xef\xbb\xbfyears = 2000", b"years = \xef\xbb\xbf2000",
    b"years 2000", b"[all]", b"# comment \xff",
])
CONFIG_LINES = st.builds(lambda k, v: f"{k} = {v}".encode(), CONFIG_KEYS, CONFIG_VALUES) | RAW_LINES


def test_config_files_exit_0_1_or_2_with_one_error_line(tmp_path, capsys):
    flows, gdp = write_panel_csvs(tmp_path)
    runs = count()

    @hypothesis.settings(max_examples=800, deadline=None)
    @hypothesis.given(st.lists(CONFIG_LINES, max_size=6), st.booleans())
    def check(lines, years_flag):
        at = next(runs)
        cfg = tmp_path / f"run{at}.cfg"
        cfg.write_bytes(b"\n".join(lines))
        run(capsys, [
            "all", "--flows", str(flows), "--gdp", str(gdp), "--out", str(tmp_path / f"out{at}"),
            "--config", str(cfg), *(["--years", "1999:2000"] if years_flag else []),
        ])

    check()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
#: Names a manifest may list that are not plain file names of the bundle:
#: paths, NUL, a lone surrogate that no file name decodes to, one that stands
#: for the undecodable byte 0xff, and any text.
ODD_NAMES = st.sampled_from(
    ["", ".", "..", "../x.csv", "/etc/hostname", "sub/x.csv", "manifest.json", "a\x00b", "\ud800",
     "\udcff"]
) | st.text(max_size=8)


@st.composite
def manifest_texts(draw, manifest: dict) -> bytes:
    """The bytes of a drawn edit of ``manifest``: wrong JSON types for ``files``,
    ``config`` or the cuts, a listed name that is not plain, deep nesting, or
    bytes that are not UTF-8."""
    edited = json.loads(json.dumps(manifest))
    kind = draw(st.sampled_from(["files", "config", "cut", "name", "nested", "bytes"]))
    if kind in ("files", "config"):
        if draw(st.booleans()):
            edited[kind] = draw(JSON)
        else:
            del edited[kind]
    elif kind == "cut":
        edited["config"][draw(st.sampled_from(["strong_cut", "moderate_cut"]))] = draw(
            JSON | st.integers(10**308, 10**400) | st.sampled_from([1e308, -0.0, 2, True])
        )
    elif kind == "name":
        edited["files"][draw(ODD_NAMES)] = draw(JSON | st.sampled_from(["0" * 64]))
    elif kind == "nested":
        depth = draw(st.integers(1, 10**5))
        where = draw(st.sampled_from([None, "files", "config", "tool"]))
        nest = "[" * depth + "]" * depth
        if where is None:
            return nest.encode()
        text = json.dumps({**edited, where: "NEST"})
        return text.replace('"NEST"', nest).encode()
    text = json.dumps(edited, indent=2).encode()
    if kind == "bytes":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"])) + text[at:]
    return text


def test_edited_bundles_exit_0_1_or_2_with_one_error_line(tmp_path, capsys):
    flows, gdp = write_panel_csvs(tmp_path)
    base = tmp_path / "base"
    assert main(["all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
                 "--out", str(base)]) == 0
    manifest = json.loads((base / "manifest.json").read_text(encoding="utf-8"))
    names = sorted(p.name for p in base.iterdir())
    runs = count()

    @st.composite
    def edits(draw):
        kind = draw(st.sampled_from(["byte", "truncate", "delete", "directory", "unlisted", "manifest"]))
        if kind == "unlisted":
            name = draw(st.sampled_from(["notes.txt", "stats_1998.csv", ".wnet-x", "links_2000.csv",
                                         os.fsdecode(b"notes\xff.txt")])
                        | st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True))
            return kind, name, None
        if kind == "manifest":
            return kind, "manifest.json", draw(manifest_texts(manifest))
        return kind, draw(st.sampled_from(names)), draw(st.integers(0, 10**6))

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(edits())
    def check(edit):
        kind, name, arg = edit
        out = tmp_path / f"out{next(runs)}"
        shutil.copytree(base, out)
        path = out / name
        if kind in ("byte", "truncate"):
            data = path.read_bytes()
            at = arg % len(data)
            if kind == "byte":
                data = data[:at] + bytes([data[at] ^ (1 + arg % 255)]) + data[at + 1:]
            path.write_bytes(data[:at] if kind == "truncate" else data)
        elif kind in ("delete", "directory"):
            path.unlink()
            if kind == "directory":
                path.mkdir()
                (path / "inner.csv").write_text("x")
        elif kind == "unlisted":
            hypothesis.assume(not path.exists() and name not in (".", ".."))
            path.write_text("x")
        else:
            path.write_bytes(arg)
        kept = {n: (out / n).read_bytes() if (out / n).is_file() else None
                for n in ("comparison.csv", "manifest.json")}
        code, _ = run(capsys, ["report", "--out", str(out)])
        if code:
            assert kept == {n: (out / n).read_bytes() if (out / n).is_file() else None
                            for n in kept}
        run(capsys, ["verify", "--out", str(out)])

    check()
