"""Every `$ dlogsidon ...` example in README.md runs and prints what the
README shows under it.

Shown lines must appear in order among the printed lines, stdout first and
then stderr. `...` inside a line stands for elided text; a line that is only
`...` stands for elided lines. A command that writes to stderr must exit 1
and show what it wrote; any other must exit 0.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _examples() -> list[tuple[str, list[str]]]:
    lines = (ROOT / "README.md").read_text().splitlines()
    out = []
    for i, line in enumerate(lines):
        text = line.strip()
        if not (text.startswith("$ ") and "dlogsidon" in text):
            continue
        shown = []
        for nxt in lines[i + 1:]:
            t = nxt.strip()
            if not t or t.startswith("$ "):
                break
            if t != "...":
                shown.append(t)
        out.append((text[2:], shown))
    return out


def _pattern(line: str):
    return re.compile(".*".join(re.escape(part) for part in line.split("...")))


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, shown):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = f'dlogsidon() {{ "{sys.executable}" -m dlogsidon.cli "$@"; }}\n{command}\n'
    proc = subprocess.run(["bash", "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    patterns = [_pattern(line) for line in shown]
    printed = iter(proc.stdout.splitlines() + proc.stderr.splitlines())
    for line, pat in zip(shown, patterns):
        assert any(pat.fullmatch(p) for p in printed), (line, proc.stdout, proc.stderr)
    errors = proc.stderr.splitlines()
    assert proc.returncode == (1 if errors else 0), proc.stderr
    for err in errors:
        assert any(pat.fullmatch(err) for pat in patterns), err
