"""Every CLI subcommand the docs name exists.

Collects each ``python -m repro.(obs|ckpt|resilience) <sub>`` from the
prose docs, the CI workflow, the repository's ``skills/*/SKILL.md``
notes and the ``src/`` docstrings, and checks that ``<sub> --help``
exits 0.  A subcommand that is deleted while a doc still tells readers
to run it fails here.
"""

from __future__ import annotations

import glob
import os
import re

import pytest

from repro.ckpt.__main__ import main as ckpt_main
from repro.obs.__main__ import main as obs_main
from repro.resilience.__main__ import main as resilience_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAINS = {"obs": obs_main, "ckpt": ckpt_main, "resilience": resilience_main}
# A newline may split the command from its subcommand in wrapped prose.
COMMAND = re.compile(r"python3? -m repro\.(obs|ckpt|resilience)\s+([A-Za-z][\w-]*)")


def _documents() -> "list[str]":
    paths = [os.path.join(ROOT, name)
             for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    for pattern in ("docs/*.md", ".github/workflows/ci.yml",
                    ".*/skills/*/SKILL.md", "src/**/*.py"):
        paths += glob.glob(os.path.join(ROOT, pattern), recursive=True)
    return sorted(p for p in paths if os.path.isfile(p))


def _documented() -> "dict[tuple[str, str], str]":
    """(module, subcommand) -> the first file that names it."""
    found: "dict[tuple[str, str], str]" = {}
    for path in _documents():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for m in COMMAND.finditer(text):
            found.setdefault(m.groups(), os.path.relpath(path, ROOT))
    return found


DOCUMENTED = _documented()


def test_documents_name_every_cli():
    assert {mod for mod, _ in DOCUMENTED} == set(MAINS)


@pytest.mark.parametrize(
    "mod,sub", sorted(DOCUMENTED), ids=[f"{m}-{s}" for m, s in sorted(DOCUMENTED)],
)
def test_documented_subcommand_exists(mod, sub, capsys):
    with pytest.raises(SystemExit) as ei:
        MAINS[mod]([sub, "--help"])
    assert ei.value.code == 0, (
        f"python -m repro.{mod} {sub} (named in {DOCUMENTED[mod, sub]}) "
        f"is not a subcommand: {capsys.readouterr().err}"
    )


@pytest.mark.parametrize("mod", sorted(MAINS))
def test_unknown_subcommand_exits_2(mod, capsys):
    with pytest.raises(SystemExit) as ei:
        MAINS[mod](["no-such-subcommand"])
    assert ei.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
