"""Golden outputs: each pinned command run, in-process, against its committed exit code, stdout, stderr and files.

A case lives in ``golden/<command>/<case>/``: ``result.json`` holds the
argument list, the exit code, stdout and stderr, and ``out/`` holds every file
the run wrote, byte for byte.  Each run writes to the relative ``--out out``
inside a fresh working directory, so the ``# command:`` header is the same on
every host.  On a mismatch the message names the cells that moved, old -> new.

A change that moves numbers on purpose re-records the references with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved cells in CHANGES.md; ``git diff tests/golden`` shows them.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from fuzzyqm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "commutators/defaults": ["commutators"],
    "commutators/json_50_states": ["--format", "json", "commutators", "--states", "50"],
    "commutators/failing_ladder": ["commutators", "--levels", "2", "--n0", "8", "--states", "1"],
}


def _run(args: list[str]) -> tuple[dict, dict[str, bytes]]:
    """Run ``fuzzyqm --out out <args>`` in the current directory: its result and the files it wrote under out/."""
    argv = ["--out", "out", *args]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}
    return {"argv": argv, "exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}, files


def _cells(name: str, data: bytes) -> dict[str, object]:
    """The cells of an output file by a readable address: CSV rows by line and column, JSON leaves by path."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        cells: dict[str, object] = {}

        def walk(obj: object, path: str) -> None:
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(v, f"{path}.{k}" if path else k)
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    walk(v, f"{path}[{i}]")
            else:
                cells[path] = obj

        walk(json.loads(text), "")
        return cells
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    columns = lines[body[0]].split(",") if body else []
    cells = {f"line {i + 1}": line for i, line in enumerate(lines) if line.startswith("#")}
    for i in body[1:]:
        for column, cell in zip(columns, lines[i].split(",")):
            cells[f"line {i + 1} {column}"] = cell
    return cells


def _moved(old: dict[str, object], new: dict[str, object]) -> list[str]:
    """One "address: old -> new" line per cell that differs between two cell maps."""
    absent = "<absent>"
    return [f"{k}: {old.get(k, absent)!r} -> {new.get(k, absent)!r}" for k in old | new if old.get(k) != new.get(k)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_output_matches_its_golden_reference(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result, files = _run(CASES[case])
    ref = GOLDEN / case
    want = json.loads((ref / "result.json").read_text(encoding="utf-8"))
    want_files = {p.name: p.read_bytes() for p in sorted((ref / "out").iterdir())}

    problems = _moved(want, result)
    if sorted(files) != sorted(want_files):
        problems.append(f"files {sorted(want_files)} -> {sorted(files)}")
    for name in sorted(set(files) & set(want_files)):
        if files[name] != want_files[name]:
            moved = _moved(_cells(name, want_files[name]), _cells(name, files[name]))
            problems += [f"{name} {m}" for m in moved] or [f"{name}: bytes differ"]
    assert not problems, f"{case} moved:\n" + "\n".join(problems)


def _record() -> None:
    """Re-record every case's reference from the program as it stands."""
    for case, args in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                result, files = _run(args)
            finally:
                os.chdir(cwd)
        ref = GOLDEN / case
        shutil.rmtree(ref, ignore_errors=True)
        (ref / "out").mkdir(parents=True)
        (ref / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        for name, data in files.items():
            (ref / "out" / name).write_bytes(data)
        print(f"recorded {ref.relative_to(GOLDEN.parent)}: exit {result['exit_code']}, {len(files)} file(s)")


if __name__ == "__main__":
    sys.exit(_record())
