"""The CLI's exit-code contract, fuzzed over `all`'s float flags.

Every value a float flag can be given must end in exit 0, 1 or 2, and a
refusal (1 or 2) must print exactly one `error:` line to stderr.  Exit 3, an
internal error, must never happen, not even with numpy's RuntimeWarnings
raised as errors.  Each value is passed as `--flag=value`, so a value that
starts with `-` (`-inf`, `-0`) reaches wnet and is not taken for an option.
"""

from __future__ import annotations

import warnings
from itertools import count

import pytest

from wnet.cli import main

from conftest import write_panel_csvs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FLOAT_FLAGS = (
    "--threshold", "--ci-level", "--tail-fraction", "--bandwidth", "--strong-cut", "--moderate-cut",
)

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


def test_float_flags_exit_0_1_or_2_with_one_error_line(tmp_path, capsys):
    flows, gdp = write_panel_csvs(tmp_path)
    runs = count()

    @hypothesis.settings(max_examples=1000, deadline=None)
    @hypothesis.given(st.dictionaries(st.sampled_from(FLOAT_FLAGS), VALUES, min_size=1))
    def check(flags):
        argv = [
            "all", "--flows", str(flows), "--gdp", str(gdp), "--years", "1999:2000",
            "--out", str(tmp_path / f"out{next(runs)}"),
            *(f"{flag}={value}" for flag, value in flags.items()),
        ]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (code, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err

    check()
