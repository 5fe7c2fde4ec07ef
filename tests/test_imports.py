import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import spinline

MODULES = sorted(
    path for path in Path(spinline.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detected():
    source = "import os\nimport numpy as np\nfrom .x import a, b\nnp.zeros(a)\n"
    assert _unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def _imported_modules(path):
    """Top-level names of every module the source imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_scipy(path):
    # scipy and jsonschema are test dependencies only: the oracles in tests/
    # use them, and numpy is the one run-time dependency
    assert _imported_modules(path).isdisjoint({"scipy", "jsonschema"})


def test_cli_import_leaves_scipy_optimize_unloaded(child_env):
    # scipy.optimize would be most of the CLI's start-up time
    code = "import sys, spinline.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env)
    assert out.stdout.strip() == "False"


def test_optimize_chain_leaves_scipy_optimize_unloaded(child_env):
    # the boundary search refines by its own trust-region Newton
    code = ("import sys\nfrom spinline.cli import main\n"
            "rc = main(['optimize-chain', '--n', '8', '--grid-step', '0.2'])\n"
            "print(rc, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_solving_commands_leave_scipy_unloaded(tmp_path, child_env):
    # the control solves run their own Levenberg-Marquardt
    params, out = tmp_path / "line.csv", tmp_path / "out.json"
    code = ("import sys\nfrom spinline.cli import main\n"
            f"main(['compute-params', '--n', '20', '--tuned', '--out', {str(params)!r}])\n"
            f"rc = [main(['create-state', '--target', 'werner', '--p', '0.5', '--params', "
            f"{str(params)!r}, '--out', {str(out)!r}]),\n"
            f"      main(['feasibility', '--params', {str(params)!r}, '--grid', '0.86:0.9:0.02', "
            f"'--starts', '4', '--out', {str(out)!r}])]\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env)
    assert out.stdout.splitlines()[-1] == "[0, 0] []"


# one config per command, at small sizes; "line.csv" is written first by flags
_COMMAND_CONFIGS = [
    {"command": "optimize-chain", "n": 7, "grid_step": 0.2, "out": "opt.json"},
    {"command": "compute-params", "n": 20, "tuned": True, "out": "line.csv"},
    {"command": "probe-params", "n": 20, "tuned": True, "out": "probed.csv"},
    {"command": "create-state", "target": "werner", "p": 0.4, "params": "line.csv",
     "out": "state.json"},
    {"command": "feasibility", "params": "line.csv", "grid": "0.86:0.9:0.02", "starts": 4,
     "out": "feasibility.json"},
    {"command": "disorder-study", "n": 20, "tuned": True, "epsilon": 0.05, "chains": 3,
     "seed": 7, "out": "study.json"},
    {"command": "reproduce-paper", "n": 60, "fast": True},
    {"command": "optimize-chain", "n": 7.0},  # refused: 7.0 is not an integer
]


def test_every_command_runs_without_jsonschema(tmp_path, child_env):
    # every import of jsonschema fails in the child, so a command that needed
    # it would end in an ImportError instead of its exit code
    code = ("import json, sys\nsys.modules['jsonschema'] = None\n"
            "from spinline.cli import main\n"
            "rc = [main(['compute-params', '--n', '20', '--tuned', '--out', 'line.csv']),\n"
            "      main(['compute-params', '--n', '20', '--t0', 'nan'])]\n"
            f"for k, config in enumerate(json.loads({json.dumps(_COMMAND_CONFIGS)!r})):\n"
            "    with open(f'config{k}.json', 'w') as fh:\n"
            "        json.dump(config, fh)\n"
            "    rc.append(main(['run', '--config', f'config{k}.json']))\n"
            "rc.append(main(['reproduce-paper', '--n', '20', '--fast']))\n"
            "print(rc, sys.modules['jsonschema'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env, cwd=tmp_path)
    assert out.stdout.splitlines()[-1] == "[0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0] None"
    assert "invalid config: 7.0 is not of type 'integer'" in out.stderr
    assert "invalid config: t0 must be finite, got nan" in out.stderr
