import re
import shlex
from pathlib import Path
from types import ModuleType

import polyassoc
from polyassoc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_command_line_examples_run(tmp_path, capsys):
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) == 4 and all(argv[0] == "polyassoc" for argv in commands)
    for argv in commands:
        argv = argv[1:]
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path)
        assert main(argv) == 0, argv
    assert (tmp_path / "census.csv").exists()


def test_package_all_is_sorted_and_lists_every_public_name():
    public = {
        name for name, value in vars(polyassoc).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert polyassoc.__all__ == sorted(polyassoc.__all__)
    assert set(polyassoc.__all__) == public
