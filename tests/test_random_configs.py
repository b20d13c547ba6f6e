"""Random valid configs through the CLI: simulate -> detect -> localize, and
heatmap.  Each command exits 0, or exits 2 naming one of the package's
errors; a localize that exits 0 scores at least one pair."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch import cli
from gridwatch.grid import TopologyError, format_feeder, load_feeder, random_feeder

# the errors the package raises on purpose, ValueError among them for a
# schedule a command cannot read; an IndexError, a KeyError or numpy's own
# LinAlgError escaping to the CLI is a fault the code did not foresee
NAMED = {"ConfigError", "TopologyError", "SingularBlockError", "NonFiniteLikelihoodError",
         "ValueError"}


@st.composite
def configs(draw):
    """(config text, feeder file text or None) of a small valid config."""
    name = draw(st.sampled_from(["loop8", "loop12", "random"]))
    feeder_text = None
    if name == "random":
        size, seed = draw(st.integers(3, 12)), draw(st.integers(0, 99))
        der = set(draw(st.lists(st.integers(2, size), max_size=2)))
        try:
            topology = random_feeder(size, loops=draw(st.integers(0, 2)), seed=seed,
                                     der_buses=der)
        except TopologyError:  # no bus pair left far enough apart for a loop
            topology = random_feeder(size, seed=seed, der_buses=der)
        feeder_text, name = format_feeder(topology), "random.feeder"
    else:
        topology = load_feeder(name)
    branch = draw(st.sampled_from([br.pair for br in topology.branches]))
    horizon = draw(st.integers(40, 160))
    lam = draw(st.integers(2, horizon))
    buses = draw(st.lists(st.integers(2, topology.bus_count), min_size=1, unique=True))
    sensors = "".join(
        f"\n[sensor]\nbus = {bus}\nkind = {draw(st.sampled_from(['phasor', 'magnitude']))}\n"
        f"period = {draw(st.sampled_from([1, 1, 2, 5]))}\n" for bus in sorted(buses))
    text = f"""\
[scenario]
feeder = {name}
outage = {branch[0]}-{branch[1]}
lambda = {lam}
horizon = {horizon}
noise_variance = {draw(st.sampled_from(["1e-8", "1e-4"]))}
seed = {draw(st.integers(0, 99))}

[detector]
mode = {draw(st.sampled_from(["known_f", "adaptive"]))}

[localize]
exact = {draw(st.booleans())}
pairs = {draw(st.sampled_from(["branches", "all"]))}
{sensors}"""
    return text, feeder_text


def _run(argv: list[str]) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 2), (argv[0], code, err)
    if code == 2:
        fault = json.loads(err.splitlines()[-1])
        assert fault["error"] in NAMED and fault["message"], (argv[0], fault)
    return code


@settings(max_examples=25, deadline=None)
@given(configs())
def test_random_configs_run_or_name_their_fault(case):
    text, feeder_text = case
    with tempfile.TemporaryDirectory(prefix="gridwatch-random-") as work:
        config = os.path.join(work, "scenario.conf")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        if feeder_text is not None:
            with open(os.path.join(work, "random.feeder"), "w", encoding="utf-8") as fh:
                fh.write(feeder_text)
        stream = os.path.join(work, "stream")
        _run(["heatmap", "--config", config, "--out", os.path.join(work, "heatmap")])
        if _run(["simulate", "--config", config, "--out", stream]):
            return
        for command in ("detect", "localize"):
            out = os.path.join(work, command)
            code = _run([command, "--config", config, "--stream", stream, "--out", out])
            if command == "localize" and code == 0:
                with open(os.path.join(out, "localization.csv"), encoding="utf-8") as fh:
                    assert cli.parse_localization_csv(fh.read()), text
