"""README's examples stay runnable: the library-use block runs, and every
JSON document block decodes through jsonio."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from influencefree.jsonio import matrix_from_document, product_state_documents
from influencefree.jsonio import testspace_from_document as space_from_document

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def blocks(language: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_library_use_block_runs():
    section = README.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = blocks("python", section)
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", blocks("json"), ids=lambda b: next(iter(json.loads(b))))
def test_json_block_decodes(block):
    doc = json.loads(block)
    if "rows" in doc:
        matrix_from_document(doc)
    elif "alice" in doc:
        product_state_documents(doc)
    else:
        space_from_document(doc)


def test_readme_holds_each_document_kind():
    assert {next(iter(json.loads(b))) for b in blocks("json")} == {"rows", "alice", "outcomes"}
