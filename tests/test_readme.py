"""The README's Python examples run as written, and its config schema and usage lines match the config table."""

import json
import re
from pathlib import Path

import pytest

from etagap.scenario import DRIFTS, MASKS, PROFILE_ENTRY, SCHEMA, TENSORS

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
# the jsonc example of "Scenario config schema"
SCHEMA_BLOCK = re.search(r"## Scenario config schema\n.*?```jsonc\n(.*?)```", TEXT, re.S).group(1)


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out  # each example prints what it shows


def test_readme_schema_names_exactly_the_table_keys():
    # the schema example, its // comments dropped, block by block
    example = json.loads(re.sub(r"//[^\n]*", "", SCHEMA_BLOCK))
    blocks = [name for name in SCHEMA if name]
    found = {"": set(example) - set(blocks), **{name: set(example[name]) for name in blocks}}
    assert found == {name: set(keys) for name, keys in SCHEMA.items()}


def test_readme_schema_names_each_preset_kind_with_exactly_its_table_keys():
    # the // comment of a preset's line and of the lines that continue it: "kind {key,...}", kinds joined by |,
    # and "entry {key,...}" for a diag_profile entry
    presets = {"mask": MASKS, "tensor": {**TENSORS, "entry": PROFILE_ENTRY}, "drift": DRIFTS}
    comments, preset = {}, None
    for line in SCHEMA_BLOCK.splitlines():
        code, _, comment = line.partition("//")
        if code.strip():
            preset = next((name for name in presets if f'"{name}"' in code), None)
        if preset:
            comments[preset] = comments.get(preset, "") + comment
    found = {
        preset: {
            kind: set(filter(None, keys.split(",")))
            for kinds, keys in re.findall(r"([\w|]+) \{([\w,]*)\}", text)
            for kind in kinds.split("|")
        }
        for preset, text in comments.items()
    }
    assert found == {preset: {kind: set(keys) for kind, keys in tables.items()} for preset, tables in presets.items()}


def test_readme_usage_names_the_table_flags():
    # the spectrum and verify lines of "Command line"; --out names the output directory, no config key
    usage = re.search(r"## Command line\n\n```bash\n(.*?)etagap lemma31", TEXT, re.S).group(1)
    flags = {key.flag[0] for keys in SCHEMA.values() for key in keys.values() if key.flag}
    assert set(re.findall(r"--[a-z-]+", usage)) - {"--out"} == flags
