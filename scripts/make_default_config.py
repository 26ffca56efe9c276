#!/usr/bin/env python3
"""Write the default experiment config to a JSON file.

Usage: python scripts/make_default_config.py [path] [--variant cI|cC|baseline]
"""

import argparse

from cmvae.objective import VARIANTS, ObjectiveConfig
from cmvae.training import RunConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", nargs="?", default="config.json")
    parser.add_argument("--variant", default="cI", choices=VARIANTS)
    args = parser.parse_args()
    cfg = RunConfig(objective=ObjectiveConfig.for_variant(args.variant))
    cfg.save(args.path)
    print(f"wrote {args.path}")


if __name__ == "__main__":
    main()
