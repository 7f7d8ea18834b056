"""The README's library example and its dimension command run as written."""

import re
import shlex
from pathlib import Path

from thermoform import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "README's Library section has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_dimension_example_emits_cloud(tmp_path, monkeypatch, capsys):
    found = re.search(r"cat > dim\.json <<'EOF'\n(.*?)\nEOF\nthermoform (dimension .*?)\n",
                      README.read_text(encoding="utf-8"), flags=re.S)
    assert found, "README has no dim.json example"
    config, command = found.groups()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dim.json").write_text(config, encoding="utf-8")
    argv = shlex.split(command)
    assert "--emit-cloud" in argv
    assert cli.main(argv) == 0, capsys.readouterr().err
    csv = argv[argv.index("--emit-cloud") + 1]
    lines = (tmp_path / csv).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x" and len(lines) == 1 + 50_000
