"""The README's Python examples run as written, and its config schema and usage lines match the config table."""

import json
import re
from pathlib import Path

import pytest

from etagap.scenario import SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out  # each example prints what it shows


def test_readme_schema_names_exactly_the_table_keys():
    # the jsonc example of "Scenario config schema", its // comments dropped, block by block
    block = re.search(r"## Scenario config schema\n.*?```jsonc\n(.*?)```", TEXT, re.S).group(1)
    example = json.loads(re.sub(r"//[^\n]*", "", block))
    blocks = [name for name in SCHEMA if name]
    found = {"": set(example) - set(blocks), **{name: set(example[name]) for name in blocks}}
    assert found == {name: set(keys) for name, keys in SCHEMA.items()}


def test_readme_usage_names_the_table_flags():
    # the spectrum and verify lines of "Command line"; --out names the output directory, no config key
    usage = re.search(r"## Command line\n\n```bash\n(.*?)etagap lemma31", TEXT, re.S).group(1)
    flags = {key.flag[0] for keys in SCHEMA.values() for key in keys.values() if key.flag}
    assert set(re.findall(r"--[a-z-]+", usage)) - {"--out"} == flags
