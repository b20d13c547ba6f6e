"""The runtime needs numpy only: importing the CLI loads no scipy and no
process pool, and every CLI path used here runs with scipy blocked.  The
modules keep their layering: gaussmodel below detector and simgen, and
simgen beside detector.  Start-up loads only the modules every command
needs; a command loads the detector, localizer and experiments modules it
runs, and the package's names from them load on first use."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import gridwatch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gridwatch.__file__)))

CONFIG = """\
[scenario]
feeder = loop8
outage = 3-4
lambda = 101
noise_variance = 1e-8
horizon = 300
seed = 3

[detector]
rho = 1e-4

[localize]
n_boot = 20

[experiment]
replications = 20

[pmu_sweep]
counts = 6, 3
replications = 20
"""


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _parse_modules() -> dict[str, ast.Module]:
    out = {}
    for path in glob.glob(os.path.join(SRC, "gridwatch", "*.py")):
        with open(path, encoding="utf-8") as fh:
            out[os.path.basename(path)[:-3]] = ast.parse(fh.read())
    return out


def _imports(tree: ast.Module) -> set[str]:
    """The gridwatch modules a module imports, relatively or by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "gridwatch" + ("." + base if base else "")
            if base == "gridwatch":
                out.update(alias.name for alias in node.names)
            elif base.startswith("gridwatch."):
                out.add(base.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("gridwatch."))
    return out


def test_module_layering():
    # the geometric prior is defined once, in gaussmodel, the lowest module
    # that uses it, and neither it nor simgen reaches up into the detector
    modules = _parse_modules()
    assert not _imports(modules["gaussmodel"]) & {"detector", "simgen"}
    assert "detector" not in _imports(modules["simgen"])
    assert {"grid", "gaussmodel"} <= _imports(modules["simgen"])  # the parser sees them
    defined = [name for name, tree in modules.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "GeometricPrior"]
    assert defined == ["gaussmodel"]


def test_cli_import_loads_no_scipy_or_process_pool(tmp_path):
    done = _python("import json, sys\n"
                   "import gridwatch.cli\n"
                   "print(json.dumps(sorted(m for m in sys.modules\n"
                   "    if m.startswith('scipy') or m == 'concurrent.futures.process')))",
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_cli_import_loads_no_numpy_random(tmp_path):
    # substream builds its seed-sequence class on first use; numpy.random
    # costs about 5 ms of import
    done = _python("import sys\n"
                   "import gridwatch.cli\n"
                   "print('numpy.random' in sys.modules)", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_commands_run_with_scipy_blocked(tmp_path):
    (tmp_path / "run.conf").write_text(CONFIG)
    done = _python("import sys\n"
                   "sys.modules['scipy'] = None  # any scipy import now fails\n"
                   "from gridwatch.cli import main\n"
                   "for argv in (['simulate', '--out', 'stream'],\n"
                   "             ['detect', '--stream', 'stream', '--out', 'detect'],\n"
                   "             ['localize', '--stream', 'stream', '--out', 'localize'],\n"
                   "             ['heatmap', '--out', 'heat'],\n"
                   "             ['experiment', '--out', 'exp'],\n"
                   "             ['pmu-sweep', '--out', 'sweep']):\n"
                   "    code = main(argv + ['--config', 'run.conf'])\n"
                   "    if code:\n"
                   "        sys.exit(f'{argv[0]} exited {code}')\n"
                   "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')\n"
                   "             if m in sys.modules))\n",
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    for name in ("stream/stream.csv", "detect/trace.csv", "localize/localization.csv",
                 "heat/heatmap_post_estimated.csv", "exp/metrics.csv", "sweep/pmu_sweep.csv"):
        assert (tmp_path / name).exists(), name


START_UP = ["gridwatch", "gridwatch.cli", "gridwatch.forking", "gridwatch.gaussmodel",
            "gridwatch.grid", "gridwatch.simgen", "gridwatch.textconf"]
DEFERRED = {"gridwatch.detector", "gridwatch.experiments", "gridwatch.localizer"}

# the deferred modules each command loads: localize formats its rho_pre and
# rho_post matrices with experiments.correlation_matrix, which imports the
# detector with the rest of its module
COMMAND_MODULES = {
    "simulate": set(),
    "detect": {"gridwatch.detector"},
    "localize": DEFERRED,
    "experiment": {"gridwatch.experiments", "gridwatch.detector"},
    "pmu-sweep": {"gridwatch.experiments", "gridwatch.detector"},
    "heatmap": {"gridwatch.experiments", "gridwatch.detector"},
}

# code that prints the gridwatch modules loaded, as a line of its own
_LOADED = ("'loaded ' + json.dumps(sorted(m for m in sys.modules\n"
           "    if m == 'gridwatch' or m.startswith('gridwatch.')))")


def _loaded(stdout: str) -> list[list[str]]:
    return [json.loads(line[7:]) for line in stdout.splitlines() if line.startswith("loaded ")]


def test_cli_import_loads_only_the_start_up_modules(tmp_path):
    done = _python(f"import json, sys\nimport gridwatch.cli\nprint({_LOADED})", tmp_path)
    assert done.returncode == 0, done.stderr
    assert _loaded(done.stdout) == [START_UP]


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_own_modules(tmp_path, command):
    (tmp_path / "run.conf").write_text(CONFIG)
    extra = ["--stream", "stream"] if command in ("detect", "localize") else []
    done = _python("import json, sys\n"
                   "from gridwatch.cli import main\n"
                   "if main(['simulate', '--config', 'run.conf', '--out', 'stream']):\n"
                   "    sys.exit('simulate failed')\n"
                   f"print({_LOADED})\n"
                   f"code = main({[command, '--config', 'run.conf', '--out', 'out', *extra]})\n"
                   "if code:\n"
                   "    sys.exit(f'exited {code}')\n"
                   f"print({_LOADED})\n", tmp_path)
    assert done.returncode == 0, done.stderr
    before, after = map(set, _loaded(done.stdout))
    assert before == set(START_UP)
    assert after - before == COMMAND_MODULES[command]


def test_package_names_load_on_first_use(tmp_path):
    # import gridwatch loads none of the deferred modules; a star import
    # binds every public name, each the object its defining module holds
    done = _python("import json, sys\n"
                   "import gridwatch\n"
                   f"before = {_LOADED}\n"
                   "names = {}\n"
                   "exec('from gridwatch import *', names)\n"
                   "names.pop('__builtins__')\n"
                   "print(before)\n"
                   "print(json.dumps(sorted(names)))\n"
                   "print(json.dumps(sorted(name for name, value in names.items()\n"
                   "    if getattr(sys.modules[value.__module__], name) is not value)))\n",
                   tmp_path)
    assert done.returncode == 0, done.stderr
    [before] = _loaded(done.stdout)
    names, unlike = map(json.loads, done.stdout.splitlines()[1:])
    assert set(before).isdisjoint(DEFERRED)
    assert names == sorted(gridwatch.__all__) and len(names) == 44
    assert unlike == []
