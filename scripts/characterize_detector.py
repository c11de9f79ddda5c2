#!/usr/bin/env python3
"""Run the full detector characterization battery and print the report.

Reproduces the headline figures of merit of the simulated detector at its
default operating point (5 mW LO, 80 MHz repetition rate): shot-noise
linearity, SNR and efficiencies, -3 dB bandwidth, CMRR, pulse-to-pulse
correlations, Allan stability and the time-bandwidth product.
"""

import argparse
import json

from pulsequad.cli import ExperimentConfig, run_characterize


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/characterize", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--pulses", type=int, default=None, help="pulses per power point (default: the run's)"
    )
    args = parser.parse_args()

    config = ExperimentConfig(
        run="characterize", n_pulses=args.pulses, seed=args.seed, out_dir=args.out
    )
    report = run_characterize(config)

    print(f"wrote report and curves to {args.out}/")
    doc = report.to_json_dict()
    cc = doc.pop("cc")
    print(json.dumps(doc, indent=2))
    print("CC(m):")
    for row in cc:
        print(f"  m={row['m']}: {row['cc']:+.4f} +/- {row['std']:.4f}")


if __name__ == "__main__":
    main()
