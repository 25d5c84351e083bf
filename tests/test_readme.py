import ast
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

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


def test_oracle_mode_examples_report_their_modes(capsys):
    # each grid or random example the README states is run and reports its mode
    text = README.read_text()
    section = text[text.index("## Randomness"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = [re.fullmatch(r'(.*?)\s*# "mode": "(\w+)"', line) for line in block.splitlines()]
    assert len(examples) == 3 and all(examples)
    for command, mode in (m.groups() for m in examples):
        argv = shlex.split(command)
        assert argv[0] == "polyassoc"
        assert main(argv[1:] + ["--format", "json"]) == 0, command
        assert json.loads(capsys.readouterr().out)["oracle"] == {"mode": mode, "agrees": True}


def test_readme_states_the_parsers_pair_budget():
    text = " ".join(README.read_text().split())
    assert f"{polyassoc.parse.PAIR_BUDGET:,} pairs (`parse.PAIR_BUDGET`)" in text


def test_readme_states_the_decisions_pair_budget():
    text = " ".join(README.read_text().split())
    assert f"{polyassoc.assoc.DECISION_BUDGET:,} pairs (`assoc.DECISION_BUDGET`)" in text


def test_version_is_the_one_pyproject_declares():
    # `--version` prints polyassoc.__version__
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(README.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == polyassoc.__version__


def test_package_all_is_sorted_and_lists_every_public_name():
    public = {
        name for name, value in vars(polyassoc).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert polyassoc.__all__ == sorted(polyassoc.__all__)
    assert set(polyassoc.__all__) == public


def test_package_imports_only_the_standard_library():
    # the package is stdlib-only: every other import is relative, within the package
    offenders = []
    for path in sorted(Path(polyassoc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            elif isinstance(node, ast.ImportFrom):
                tops = [] if node.level == 1 else [f"{'.' * node.level}{node.module}"]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {top}" for top in tops
                if top not in sys.stdlib_module_names
            ]
    assert offenders == []


def test_only_rings_knows_which_ring_it_holds():
    # every per-ring decision lives in rings.py; the package re-exports
    # GaussianInt.  A ring's coordinate count and its class are read there alone
    offenders = []
    for path in sorted(Path(polyassoc.__file__).parent.glob("*.py")):
        if path.name == "rings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                found = node.attr in ("dim", "_ops") or (
                    isinstance(node.value, ast.Name) and node.value.id == "Ring"
                    and node.attr in ("Z", "Q", "ZI")
                )
            elif isinstance(node, ast.Import):
                found = any(alias.name == "fractions" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                found = node.module == "fractions" or (
                    "GaussianInt" in names and path.name != "__init__.py"
                )
            else:
                continue
            if found:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_errors_imports_nothing_from_the_package():
    # every layer can raise the package's exceptions because errors.py
    # imports no other layer
    tree = ast.parse((Path(polyassoc.__file__).parent / "errors.py").read_text())
    modules = [
        "." * node.level + (node.module or "") if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [m for m in modules if m.startswith((".", "polyassoc"))] == []


def test_every_module_imports_the_exceptions_from_errors():
    # an exception taken through another layer ties the importer to that layer's imports
    package = Path(polyassoc.__file__).parent
    tree = ast.parse((package / "errors.py").read_text())
    exceptions = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    offenders = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module not in ("errors", "polyassoc.errors")
        for alias in node.names if alias.name in exceptions
    ]
    assert offenders == []


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    # start-up cost: each of these takes milliseconds to import and nothing needs it;
    # -S keeps site from importing typing on its own.  A scanned request leaves
    # argparse out too, and a usage error after it loads argparse for its message.
    src = Path(polyassoc.__file__).resolve().parents[1]
    cases = [  # (code after the import, its stdout, the tail of its stderr)
        ("print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))", "[]", ""),
        (
            "from polyassoc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['check', '--ring', 'z', '--n', '2', '--poly', 'x1'])\n"
            "print(code, 'argparse' in sys.modules)\n"
            "print(main(['check', '--ring', 'r', '--n', '2', '--poly', 'x1']))",
            "0 False\n2",
            "polyassoc check: error: argument --ring: invalid choice: 'r' "
            "(choose from 'z', 'q', 'zi')\n",
        ),
    ]
    for then, out, err_tail in cases:
        code = (
            f"import contextlib, io, sys; sys.path.insert(0, {str(src)!r}); "
            f"import polyassoc.cli\n{then}"
        )
        run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == out
        assert run.stderr.endswith(err_tail)


def test_each_command_loads_only_what_it_runs(tmp_path):
    # a report request leaves the census walk uncompiled; a well-formed
    # enumerate loads it and is scanned without argparse, and a bad ring still
    # gets argparse's message and exit code
    src = Path(polyassoc.__file__).resolve().parents[1]
    box = ["enumerate", "--n", "2", "--bound", "1", "--out", str(tmp_path / "census")]
    code = (
        f"import contextlib, io, sys; sys.path.insert(0, {str(src)!r})\n"
        "from polyassoc.cli import main\n"
        "def loaded(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code, 'polyassoc.census' in sys.modules, 'argparse' in sys.modules)\n"
        "loaded(['check', '--ring', 'z', '--n', '3', '--poly', 'x1 + x2', '--format', 'text'])\n"
        f"loaded({[*box, '--ring', 'z', '--prune']!r})\n"
        f"print(main({[*box, '--ring', 'q']!r}))\n"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["0 False False", "0 True False", "2"]
    assert run.stderr.endswith(
        "polyassoc enumerate: error: argument --ring: invalid choice: 'q' (choose from 'z', 'zi')\n"
    )
    assert (tmp_path / "census" / "census.csv").is_file()


def test_oracle_imports_no_census_or_decision_code():
    # report requests compile oracle.py, so it leaves the census walk and
    # classify to census.py; of assoc it takes the grid guard's bound and the
    # binding the tracer reads
    tree = ast.parse((Path(polyassoc.__file__).parent / "oracle.py").read_text())
    imported = set()  # (module, name), the module's last dotted part; "*" for a module
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            imported |= {(module, a.name) if module else (a.name, "*") for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name.split(".")[-1], "*") for alias in node.names}
    assert {name for module, name in imported if module == "assoc"} == {
        "_slot_bound", "associative_multilinear"
    }
    assert {module for module, _ in imported} & {"classify", "census"} == set()


def test_assoc_imports_only_errors_and_poly_from_the_package():
    # the decision keeps clear of the oracle's route code and of classify
    tree = ast.parse((Path(polyassoc.__file__).parent / "assoc.py").read_text())
    modules = {
        "." * node.level + (node.module or "") if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert {m for m in modules if m.startswith((".", "polyassoc"))} <= {".errors", ".poly"}


def test_census_imports_only_the_walk_masks_from_assoc_and_nothing_from_oracle():
    # a survivor is checked by recognition and by the grid oracle, which
    # ``enumerate`` runs; a composition route here would be a third check
    tree = ast.parse((Path(polyassoc.__file__).parent / "census.py").read_text())
    imported = {
        ("." * node.level + (node.module or ""), alias.name) if isinstance(node, ast.ImportFrom)
        else (alias.name, None)
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert {name for module, name in imported
            if module in (".assoc", "polyassoc.assoc")} == {"_pulled_masks"}
    assert not {(module, name) for module, name in imported
                if "oracle" in (module.rsplit(".", 1)[-1], name) or name == "assoc"}


def test_cli_imports_only_the_verdict_and_its_witness_from_assoc():
    # the front end builds no composition, and classify takes the witness
    # from the library's one search
    wanted = {
        "cli.py": {"AssocVerdict", "CompositionWitness", "is_associative"},
        "classify.py": {"CompositionWitness", "is_associative"},
    }
    for module, want in wanted.items():
        tree = ast.parse((Path(polyassoc.__file__).parent / module).read_text())
        names = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in ((1, "assoc"), (0, "polyassoc.assoc"))
            for alias in node.names
        }
        assert names == want, module


def test_cli_imports_no_private_name_from_oracle():
    # the front end checks a witness through the oracle's public evaluation
    tree = ast.parse((Path(polyassoc.__file__).parent / "cli.py").read_text())
    names = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "oracle"), (0, "polyassoc.oracle"))
        for alias in node.names
    }
    assert "associated_value" in names
    assert sorted(name for name in names if name.startswith("_")) == []


def test_no_module_imports_a_name_it_never_reads():
    # the package re-exports its names, and bench/layertrace.py wraps the
    # two bindings kept for it
    kept = {("cli.py", "is_associative"), ("oracle.py", "associative_multilinear")}
    offenders = []
    for path in sorted(Path(polyassoc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (path.name, name) not in kept:
                        offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


@pytest.mark.parametrize("line, imports", [
    ("from .errors import BudgetError, InternalInvariantError", True),
    # the old home of BudgetError imports assoc itself: a circular import
    ("from .oracle import BudgetError", False),
])
def test_assoc_can_import_the_exceptions_from_errors(tmp_path, line, imports):
    # a copy of the package whose assoc.py gains the import, imported fresh
    copy = tmp_path / "polyassoc"
    shutil.copytree(
        Path(polyassoc.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    assoc = copy / "assoc.py"
    assoc.write_text(assoc.read_text().replace("from .poly import", f"{line}\nfrom .poly import", 1))
    run = subprocess.run(
        [sys.executable, "-c", "import polyassoc.assoc"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert (run.returncode == 0) == imports, run.stderr
    if not imports:
        assert "partially initialized module" in run.stderr
