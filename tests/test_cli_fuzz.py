"""Property test of the CLI's exit-code contract over random argv and config files.

Whatever the flags and the ``--config`` file hold (finite, extreme, infinite
or NaN numbers, wrong types, unknown keys), ``cli.main`` exits 0 with
parseable output or 2 with an error message (1 only for ``verify``) and
never shows a traceback or a numpy ``RuntimeWarning``. A ``metric`` that
exits 0 reports a finite, positive determinant and eigenvalues. The options
of each command are read from the parser, so a new option is fuzzed without
editing this file.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgeo import cli

SUBPARSERS = cli.build_parser()._subparsers._group_actions[0].choices

#: Options left alone: output and config paths.
SKIPPED = {"out", "config"}

EXTREMES = [0.0, 1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300, math.inf, math.nan]
FLOATS = st.one_of(
    st.sampled_from(EXTREMES + [-x for x in EXTREMES[1:]]),
    st.floats(-10.0, 10.0),
)
INTS = st.integers(-2, 200)  # --n <= 200 bounds the cost of a table
TEXTS = st.sampled_from(["", "abc", "0.5", "nan", "-1", "[1]"])


def _options(command: str) -> list[argparse.Action]:
    return [a for a in SUBPARSERS[command]._actions
            if a.option_strings and a.nargs != 0 and a.dest not in SKIPPED]


def _values(action: argparse.Action):
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    return INTS if action.type is int else FLOATS


@st.composite
def invocations(draw):
    """(argv, config dict or None) for one random subcommand."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    # the cheapest group, given as a flag so that it beats the config too
    argv = [command, "--only=oracle"] if command == "verify" else [command]
    # a few options at a time, so that most runs get past the first guard
    # (verify has no option but --only to draw)
    options = [a for a in _options(command) if a.dest != "only"]
    chosen = draw(st.lists(st.sampled_from(options), max_size=3, unique=True)) if options else []
    for action in chosen:
        value = draw(_values(action))
        text = repr(value) if isinstance(value, float) else str(value)
        argv.append(f"{action.option_strings[0]}={text}")
    config = None
    if draw(st.booleans()):
        keys = st.sampled_from([a.dest for a in _options(command)] + ["bogus", "fn"])
        raw = st.one_of(FLOATS, INTS, TEXTS, st.lists(FLOATS, max_size=3), st.none())
        config = draw(st.dictionaries(keys, raw, max_size=4))
    return argv, config


def _assert_parses(text: str, fmt: str) -> dict:
    """Parse the output; a record comes back as {name: value}."""
    if fmt == "json":
        return json.loads(text)
    header, *rows = list(csv.reader(io.StringIO(text)))
    for row in rows:
        assert len(row) == len(header)
        for field in row[1:] if header == ["name", "value"] else row:
            float(field)
    return {row[0]: float(row[1]) for row in rows} if header == ["name", "value"] else {}


def _metric_spectrum(record: dict) -> list[float]:
    """Determinant and eigenvalues of a metric record, in CSV or JSON form."""
    if "eigenvalues" in record:
        return [record["determinant"], *record["eigenvalues"]]
    return [v for k, v in record.items() if k == "determinant" or k.startswith("eigenvalues_")]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(invocations())
def test_exit_code_contract(invocation):
    argv, config = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        if config is not None:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, f"--config={path}"]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    # extreme input must fail with one error line, not numpy warnings first
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), (argv, config, err)
    if code == 0:
        # no drawn config value is a valid format, so only a flag selects csv
        record = _assert_parses(out, "csv" if "--format=csv" in argv else "json")
        if argv[0] == "metric":
            spectrum = _metric_spectrum(record)
            assert spectrum and all(0.0 < v < math.inf for v in spectrum), (argv, config)
    else:
        assert err
