"""Set-up probe, run in a fresh interpreter and timed from outside.

Usage: python3 setup_probe.py <checkout root> <workload config>

Imports triporo from the checkout, builds the n = 12 Stehfest scheme and
loads the workload's config into model parameters, which is what a user
pays before the first curve.
"""

import configparser
import json
import sys
from pathlib import Path


def main(root: str, config: str) -> int:
    sys.path.insert(0, str(Path(root) / "src"))
    import triporo

    triporo.StehfestScheme.of_order(12)
    if config.endswith(".json"):
        with open(config, "r", encoding="utf-8") as fh:
            sets = json.load(fh)["first_params"]
    else:
        cfg = configparser.ConfigParser()
        with open(config, "r", encoding="utf-8") as fh:
            cfg.read_file(fh)
        sets = [{k: float(v) for k, v in cfg["model"].items()}]
    for kw in sets:
        triporo.TriplePorosityParams(**kw)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
