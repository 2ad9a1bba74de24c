"""Golden corpus of `lipagg` outputs, one file per command line in CASES.

Regenerate every file under ``out/`` with

    PYTHONPATH=src python tests/golden/regen.py

and review the diff: a changed byte is a changed result.
``tests/test_golden.py`` replays the same command lines in process and
compares bytes, except for the Monte-Carlo ``metric`` and ``mse_stderr`` of
``simulate``, which it compares to 1e-12 relative (their summation order
may move the last digits, see the ``harness`` docstring).

A command runs in an empty working directory, so a relative ``--out`` names
a file there; a case that writes one records its standard output followed
by that file.  A case may also be a tuple of command lines run in order in
one working directory, recording only the last: the fixed-value simulation
reads the population file that its ``ingest`` writes there.  ``{inputs}``
and ``{fixtures}`` stand for ``tests/golden/inputs`` and ``tests/fixtures``.
"""

import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
PATHS = {"inputs": HERE / "inputs", "fixtures": HERE.parent / "fixtures"}

_DERIVE = {
    "opt-binary-lip": "--p1 0.3 --eps 1.5",
    "opt-binary-ldp": "--eps 1.5",
    "opt-mimo-lip": "--prior 0.1,0.2,0.3,0.4 --eps 0.7",
    "opt-mimo-ldp": "--d 4 --eps 0.7",
    "symmetric-rr": "--eps 2",
    "oue": "--eps 2",
}

_INGEST_CHECKINS = ("ingest --input {fixtures}/checkins.csv --mode grid --lat-col lat"
                    " --lon-col lon --grid-rows 2 --grid-cols 2 --bbox 30,31,-98,-97"
                    " --prior-source per-user-history --user-col user --out population.json")

# (file name under out/, command line or tuple of them)
CASES = [
    (f"derive-{family}.{fmt}", f"mechanism derive --family {family} {flags} --format {fmt}")
    for family, flags in _DERIVE.items() for fmt in ("csv", "json")
] + [
    ("audit-family.json",
     "audit --family opt-mimo-lip --prior 0.1,0.2,0.3,0.4 --eps 0.7 --format json"),
    ("audit-channel-file.json",
     "audit --channel-file {inputs}/channel.csv --prior 0.2,0.3,0.5 --format json"),
    ("curve-survey.csv",
     "analyze curve --families opt-binary-lip,opt-binary-ldp,symmetric-rr --task survey"
     " --eps-grid 0.5:3:0.5 --n 50 --prior-mode local-uniform --seed 3"),
    ("curve-histogram-d5.json",
     "analyze curve --families opt-mimo-lip,opt-mimo-ldp,oue --task histogram"
     " --eps-grid 0.5,1,2,4 --n 40 --d 5 --prior-mode local-uniform --seed 5 --format json"),
    ("cip-n20.csv", "cip --n 20 --p1 0.3 --eps 1"),
    ("cip-n20.json", "cip --n 20 --p1 0.3 --eps 1 --format json"),
    ("cip-n50.csv", "cip --n 50 --p1 0.1 --eps 0.1"),
    ("cip-n50.json", "cip --n 50 --p1 0.1 --eps 0.1 --format json"),
    ("ingest-checkins-grid.txt", _INGEST_CHECKINS),
] + [
    (f"simulate-{config}.{fmt}",
     f"simulate --config {{inputs}}/simulate-{config}.json --format {fmt}")
    for config in ("survey", "histogram") for fmt in ("csv", "json")
] + [
    (f"simulate-{config}.json", f"simulate --config {{inputs}}/simulate-{config}.json --format json")
    for config in ("summation-values", "weighted-sum-values", "survey-global")
] + [
    ("simulate-checkins-fixed.json",
     (_INGEST_CHECKINS, "simulate --config {inputs}/simulate-checkins-fixed.json --format json")),
]


def replay(command) -> str:
    """What ``command`` (or the last of a tuple of them) writes, run through
    ``cli.main`` in a fresh working directory; raises if one does not exit 0."""
    from lipagg import cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for line in (command,) if isinstance(command, str) else command:
                argv = [arg.format(**PATHS) for arg in shlex.split(line)]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"`lipagg {line}` exited {code}")
                written = ""
                if "--out" in argv:
                    written = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        finally:
            os.chdir(cwd)
    return stdout.getvalue() + written


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for name, command in CASES:
        (OUT / name).write_text(replay(command), encoding="utf-8", newline="")
    sys.stdout.write(f"wrote {len(CASES)} files to {OUT}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
