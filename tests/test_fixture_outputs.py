"""The CLI's estimate and infer JSON on every fixture, against a record.

fixture_outputs.json holds the exit code, stdout and stderr of each
command below on each of the 8 fixtures.  Every output must match it byte
for byte, except the Bayes route's, whose numbers may move by 1e-10
relative (its alpha quadrature and mode are rounding-sensitive).  A change
that means to move numbers regenerates the record with

    PYTHONPATH=src python tests/test_fixture_outputs.py

which first prints, to stderr, each command whose output changed: the
keys added or removed, by path ("+diagnostics.reason"), any other text
that differs, the old and new value of each integer that moved
("diagnostics.evals 9 -> 7") and of each number below ABS_FLOOR in size
(residuals at rounding noise), and the largest relative move of any other
JSON number in it.  A failing test prints the same line.  Give the reason in CHANGES.md.  A
change that means to move nothing shows that the record still holds with

    PYTHONPATH=src python tests/test_fixture_outputs.py --check

which prints the same lines, writes nothing, and exits 1 if any output,
Bayes included, differs from its record by a byte.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from missmass import cli

HERE = Path(__file__).resolve().parent
RECORD = HERE / "fixture_outputs.json"
FIXTURES = sorted(p.stem for p in (HERE.parent / "fixtures").glob("*.json"))

# the argument sets of the benchmark's fixture matrix; hm takes h = x, H = 1
ESTIMATE_ARGS = {
    "ipw-fixed": ["--method", "ipw-fixed"],
    "ipw-poisson": ["--method", "ipw-poisson"],
    "rb-exact": ["--method", "rb-exact"],
    "rb-exact-fixed-n-M": ["--method", "rb-exact", "--pi", "fixed-n",
                           "--variant", "M_over_Z"],
    "rb-poisson": ["--method", "rb-poisson"],
    "gt": ["--method", "gt"],
    "gt-rb": ["--method", "gt-rb"],
    "gtoulmin": ["--method", "gtoulmin"],
    "hm": ["--method", "hm", "--H", "1"],
}
INFER_ARGS = {
    "bayes": ["--method", "bayes"],
    "profile": ["--method", "profile"],
    "mixed-L5": ["--method", "mixed"],
    "mixed-L9": ["--method", "mixed", "--base", "L9"],
    "mle": ["--method", "mle"],
    "moment-A": ["--method", "moment-match", "--strategy", "A"],
    "moment-B": ["--method", "moment-match", "--strategy", "B"],
    "moment-C": ["--method", "moment-match", "--strategy", "C"],
}
BAYES_RTOL = 1e-10


def commands():
    for fixture in FIXTURES:
        for cmd in ESTIMATE_ARGS:
            yield f"estimate:{cmd}:{fixture}"
        for cmd in INFER_ARGS:
            yield f"infer:{cmd}:{fixture}"


def run(key: str, workdir: Path) -> dict:
    verb, cmd, fixture = key.split(":")
    path = HERE.parent / "fixtures" / f"{fixture}.json"
    argv = [verb, "--in", str(path)]
    if verb == "estimate":
        argv += ESTIMATE_ARGS[cmd]
        if cmd == "hm":
            h_file = workdir / f"h_{fixture}.json"
            h_file.write_text(json.dumps({"h": json.loads(path.read_text())["x"]}))
            argv += ["--h-file", str(h_file)]
    else:
        argv += INFER_ARGS[cmd]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def assert_close(got, want, where=""):
    """Equal JSON values, numbers within BAYES_RTOL relative."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert type(got) in (int, float) and math.isclose(
            got, want, rel_tol=BAYES_RTOL, abs_tol=0.0), f"{where}: {got} != {want}"
    else:
        assert got == want, where


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("key", list(commands()))
def test_output_matches_record(key, record, tmp_path):
    got, want = run(key, tmp_path), record[key]
    if key.startswith("infer:bayes:") and want["rc"] == 0:
        assert (got["rc"], got["stderr"]) == (0, want["stderr"])
        assert_close(json.loads(got["stdout"]), json.loads(want["stdout"]))
    elif got != want:
        pytest.fail(f"{key} moved from its record: {record_move(got, want)}")


# numbers below this size are reported with their values, as integers are,
# not by their relative move: every such number in the record is a solver
# residual, a tail mass or a mass check, whose relative move says nothing
ABS_FLOOR = 1e-9


def largest_move(got, want, path: str = "") -> tuple[float, list[str]]:
    """The largest relative move of any JSON number that got and want
    both hold, and every other difference by its path below ``path``:
    "+path" / "-path" for a key added / removed, "path (order)" for
    reordered keys, "path (length)" for a list, "path" for a non-number,
    and "path want -> got" for an integer or a number below ABS_FLOOR in
    both, which the relative move leaves out."""
    if isinstance(want, (dict, list)) and type(got) is type(want):
        def below(key):
            return f"{path}.{key}" if path else str(key)

        if isinstance(want, dict):
            changes = ([f"+{below(key)}" for key in got if key not in want]
                       + [f"-{below(key)}" for key in want if key not in got])
            if not changes and list(got) != list(want):
                changes.append(f"{path} (order)")
            moves = [largest_move(got[key], want[key], below(key))
                     for key in want if key in got]
        else:
            changes = [] if len(got) == len(want) else [f"{path} (length)"]
            moves = [largest_move(g, w, below(k)) for k, (g, w) in enumerate(zip(got, want))]
        return (max((m for m, _ in moves), default=0.0),
                changes + [c for _, more in moves for c in more])
    if type(got) not in (int, float) or type(want) not in (int, float):
        return 0.0, [path] if got != want else []
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0, []
    if type(got) is type(want) is int or max(abs(got), abs(want)) < ABS_FLOOR:
        return 0.0, [f"{path} {want!r} -> {got!r}"]
    if not (math.isfinite(got) and math.isfinite(want)):
        return math.inf, []
    return abs(got - want) / max(abs(got), abs(want)), []


def test_report_lists_integers_and_tiny_numbers_by_value():
    want = {"params": [2.0, 3.0], "residuals": [-1.5e-16, 0.0], "evals": 9}
    got = {"params": [2.0 * (1 + 2e-15), 3.0], "residuals": [1.5e-16, 0.0], "evals": 7}
    move, changes = largest_move(got, want)
    assert move == pytest.approx(2e-15, rel=1e-3)
    assert changes == ["residuals.0 -1.5e-16 -> 1.5e-16", "evals 9 -> 7"]


def record_move(got, want) -> str:
    """How a command's output moved from its record: the paths that
    differ (those in its JSON stdout relative to that JSON), with the
    old and new values of integers and of numbers below ABS_FLOOR, then
    the largest relative move of any other number."""
    if want is None:
        return "new"

    def parsed(rec):
        try:
            return json.loads(rec["stdout"])
        except ValueError:
            return rec["stdout"]

    move, changes = largest_move(parsed(got), parsed(want))
    changes = [c.strip() or "stdout" for c in changes]
    changes += [key for key in ("rc", "stderr") if got[key] != want[key]]
    return ", ".join(changes + [f"largest relative move {move:.3g}"])


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Regenerate the CLI output record.")
    parser.add_argument("--check", action="store_true",
                        help="print each move, write nothing, exit 1 on any move")
    check = parser.parse_args().check
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {key: run(key, Path(tmp)) for key in commands()}
    old = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    moved = [key for key in outputs if outputs[key] != old.get(key)]
    for key in moved:
        print(f"{key}: {record_move(outputs[key], old.get(key))}", file=sys.stderr)
    gone = [key for key in old if key not in outputs]
    for key in gone:
        print(f"{key}: removed", file=sys.stderr)
    if check:
        print(f"{len(moved)} of {len(outputs)} outputs moved, {len(gone)} removed",
              file=sys.stderr)
        sys.exit(1 if moved or gone else 0)
    RECORD.write_text(json.dumps(outputs, indent=1) + "\n")
    print(f"wrote {len(outputs)} outputs to {RECORD}", file=sys.stderr)
