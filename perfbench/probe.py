"""Set-up probe, run in a fresh interpreter by run.py and timed from outside.

    python3 perfbench/probe.py SRC_DIR CONFIG SEED

Imports gridwatch from SRC_DIR, parses the workload config, loads its feeder
and builds the pre- and post-outage models: the work every CLI command pays
before it starts on its own job.
"""

import os
import sys


def main(src: str, config: str, seed: str) -> None:
    sys.path.insert(0, src)
    from gridwatch import cli

    scenario = cli.build_scenario(cli.load_config(config), os.path.dirname(config),
                                  int(seed))
    scenario.pre_model()
    scenario.post_model()


if __name__ == "__main__":
    main(*sys.argv[1:])
