"""The runtime needs numpy only: importing the CLI loads no scipy and no
process pool, and every CLI path used here runs with scipy blocked."""

import json
import os
import subprocess
import sys

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


def test_cli_import_loads_no_scipy_or_process_pool(tmp_path):
    done = _python("import json, sys\n"
                   "import gridwatch.cli\n"
                   "print(json.dumps(sorted(m for m in sys.modules\n"
                   "    if m.startswith('scipy') or m == 'concurrent.futures.process')))",
                   tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


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
