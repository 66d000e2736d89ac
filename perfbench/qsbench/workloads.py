"""Workloads: lists of CLI experiment configs generated from a seed.

The workload seed sets the config `seed` (the Monte Carlo streams) and the
qubit spectrum, drawn from a range on which every config runs at the
default Fock truncation of 64.  The program receives only the config files
written here.
"""

import json
import math
import random
from dataclasses import dataclass

# Qubit states are diag(lam, 1 - lam) with lam in this range.
LAMBDA_RANGE = (0.70, 0.80)
# The test-sim alternative is diag(lam - ALT_SHIFT, 1 - lam + ALT_SHIFT).
ALT_SHIFT = 0.15

WORKLOADS = ("finite-n", "applications")
FINITE_N_LIST = [4, 6, 8, 10, 12]

# S[sigma_z sigma_x] = (sz (x) sx + sx (x) sz) / 2, the metrology generator.
ZX_KERNEL = [
    [0.0, 0.5, 0.5, 0.0],
    [0.5, 0.0, 0.0, -0.5],
    [0.5, 0.0, 0.0, -0.5],
    [0.0, -0.5, -0.5, 0.0],
]
PLUS_STATE = [[0.5, 0.5], [0.5, 0.5]]
METROLOGY_T, METROLOGY_G1, METROLOGY_G2 = 1.0, 0.5, 0.0


@dataclass(frozen=True)
class Params:
    """Everything a workload seed decides."""

    config_seed: int
    lam: float

    @property
    def qubit(self):
        return [self.lam, 1.0 - self.lam]

    @property
    def alternative(self):
        return [self.lam - ALT_SHIFT, 1.0 - self.lam + ALT_SHIFT]


def draw_params(seed):
    rng = random.Random(seed)
    return Params(
        config_seed=rng.randrange(2 ** 31),
        lam=rng.uniform(*LAMBDA_RANGE),
    )


def _zero(rows):
    return [[0.0] * len(row) for row in rows]


def experiments(workload, params, small=False):
    """[(name, config)] of one workload.

    small=True gives the same commands on the smallest inputs; they load
    every code path lazily imported by the full configs and serve as the
    untimed warm-up.
    """
    seed = params.config_seed
    if workload == "finite-n":
        return [("convergence", {
            "command": "convergence",
            "state": {"eigenvalues": params.qubit},
            "kernel": {"preset": "pauli-xy"},
            "n_list": [4] if small else FINITE_N_LIST,
            "p_list": [2] if small else [2, 4],
            "seed": seed,
        })]
    if workload == "applications":
        return [
            ("test-sim", {
                "command": "test-sim",
                "state": {"eigenvalues": params.qubit},
                "alternative": {"eigenvalues": params.alternative},
                "alpha": 0.05,
                "n_list": [4] if small else [4, 6, 8, 10],
                "mc_replicates": 100 if small else 10 ** 4,
                "limit_draws": 1000 if small else 10 ** 6,
                "seed": seed,
            }),
            ("metrology", {
                "command": "metrology",
                "state": {"matrix": {"dim": 2, "re": PLUS_STATE, "im": _zero(PLUS_STATE)}},
                "kernel": {
                    "d": 2,
                    "r": 2,
                    "matrix": {"dim": 4, "re": ZX_KERNEL, "im": _zero(ZX_KERNEL)},
                },
                "n_list": [4] if small else [4, 6, 8, 10],
                "t": METROLOGY_T,
                "g1": METROLOGY_G1,
                "g2": METROLOGY_G2,
                "seed": seed,
            }),
        ]
    raise ValueError("unknown workload %r" % workload)


def write_configs(exps, directory):
    """Write each config as <name>.json; returns [(name, config, path)]."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for name, config in exps:
        path = directory / ("%s.json" % name)
        path.write_text(json.dumps(config, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        out.append((name, config, path))
    return out


def finite_n_working_set():
    """Bytes of one dense complex d^n x d^n statistic, per n of finite-n."""
    return {n: 16 * 4 ** n for n in FINITE_N_LIST}


def metrology_limit():
    """exp(-t^2 (g1-g2)^2 xi_1 / 2) with xi_1 = 1/4 for S[sz sx] on |+>."""
    dg = METROLOGY_G1 - METROLOGY_G2
    return math.exp(-(METROLOGY_T * dg) ** 2 * 0.25 / 2.0)
