"""A committed digest of what `gha` prints for a fixed corpus of requests.

`tests/data/cli_corpus.json` holds argv lists, each with the exit code and
one sha256 of (exit code, stdout, stderr) of `gha.cli.run(argv)`, so a
refactor that changes no output leaves every digest as it is.  The argv
lists are data: nothing regenerates them.  A change that alters output on
purpose rewrites the digests and lists the requests whose output changed.

    PYTHONPATH=src python -m tests.cli_corpus --check   # every request
    PYTHONPATH=src python -m tests.cli_corpus --write   # rewrite the digests

Usage errors and help pages are argparse's text, whose wording differs
between Python versions; those entries are marked "argparse", and under a
Python other than the one recorded in the file only their exit code is
compared.  Help pages are formatted at 80 columns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from gha import cli

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"
PYTHON = "%d.%d" % sys.version_info[:2]


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def outcome(argv: list[str]) -> dict:
    """Exit code, digest, and whether argparse answered the request itself."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
            try:
                cli.build_parser().parse_args(argv)
                by_argparse = False
            except SystemExit:
                by_argparse = True
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    entry = {"argv": argv, "code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return {**entry, "argparse": True} if by_argparse else entry


def mismatches(corpus: dict, entries: list[dict]) -> list[str]:
    """One line per entry whose output differs from its recorded digest."""
    bad = []
    for want in entries:
        got = outcome(want["argv"])
        other_argparse = want.get("argparse") and corpus["python"] != PYTHON
        keys = ("code",) if other_argparse else ("code", "sha256")
        if any(got[k] != want[k] for k in keys):
            bad.append(f"{json.dumps(want['argv'])[:300]}: exit {got['code']}, sha256 {got['sha256'][:12]}"
                       f" (recorded exit {want['code']}, sha256 {want['sha256'][:12]})")
    return bad


def write(corpus: dict) -> None:
    requests = [outcome(e["argv"]) for e in corpus["requests"]]
    lines = ",\n".join("  " + json.dumps(e, ensure_ascii=False) for e in requests)
    CORPUS.write_text(f'{{"python": "{PYTHON}", "requests": [\n{lines}\n]}}\n', encoding="utf-8")


def main(argv=None) -> int:
    (mode,) = argv if argv is not None else sys.argv[1:] or ["--check"]
    corpus = load()
    if mode == "--write":
        write(corpus)
        return 0
    bad = mismatches(corpus, corpus["requests"])
    print("\n".join(bad) or f"{len(corpus['requests'])} requests, every digest equal")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
