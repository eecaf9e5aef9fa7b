"""A small run of the experiment harness: crossings saved by exterior edges.

Generates random biconnected graphs around density 2.6, solves each for
k=0 and k=1 under both weight modes, and reports the mean percentage of
crossings saved against the one-sided layout.  Every row is re-checked
against the exact accounting identities before it is emitted.
"""

import pathlib
import random

from twosided import ExperimentConfig, rows_to_csv, run_experiment
from twosided.bench import mean_saved_pct

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

rng = random.Random(2)
sizes = sorted(rng.randint(20, 40) for _ in range(12))
config = ExperimentConfig(
    cases=tuple((n, round(2.6 * n)) for n in sizes),
    repetitions=1,
    seed_base=300,
)
rows = run_experiment(config)

csv_path = OUT / "experiment.csv"
csv_path.write_text(rows_to_csv(rows))
print(f"wrote {csv_path} ({len(rows)} rows)")

print("\n  n    m   crossings  saved k=0  saved k=1   t(k=0) ms  t(k=1,w1) ms  t(k=1,w2) ms")
for r in rows:
    print(
        f"{r['n']:4d} {r['m']:4d} {r['crossings_1sided']:10d} "
        f"{r['saved_pct_k0']:9.1f}% {r['saved_pct_k1']:9.1f}% "
        f"{r['time_k0_ms']:10.1f} {r['time_k1_ms']:13.1f} {r['time_k1_w2_ms']:13.1f}"
    )

k0, k1 = mean_saved_pct(rows)
print(f"\nmean saved crossings: k=0: {k0:.1f}%   k=1: {k1:.1f}%  "
      f"(k=1 saves {k1 - k0:.1f} points more)")
