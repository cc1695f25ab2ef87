"""Golden digests of `slqcopt run` traces, one small config per optimizer.

Each case runs the CLI and compares the SHA-256 of every CSV it writes with
a recorded digest, so any change to the optimizers that moves a single byte
of a trace fails here.  The digests were recorded with Python 3.11 and
numpy 2.4 on x86-64; a different platform may round differently and needs
its own recording (print `_digests(...)` for each case).
"""

import hashlib
import json

import pytest

from slqcopt.cli import main

GLM = {"name": "noisy_glm", "params": {"d": 4, "W": 2.0, "pool_size": 200}}
X1_GLM = [0.5, -0.5, 0.25, 0.0]
POLY = {"eta0": 0.05, "gamma": 1e-2, "exponent": 0.75}

CASES = {
    "ngd_projected": {
        "problem": {"name": "sigmoid_sum"},
        "optimizer": {"name": "ngd", "params": {"T": 400, "eta": 0.1, "x1": [9.0, 8.0]}},
    },
    # clipped onto the box corner from row 345 on: one row repeated over
    # several whole CSV chunks and into the last, partial one (2000 = 7*256 + 208)
    "ngd_projected_long": {
        "problem": {"name": "sigmoid_sum"},
        "optimizer": {"name": "ngd", "params": {"T": 2000, "eta": 0.1, "x1": [9.0, 8.0]}},
    },
    "ngd_oracle": {
        "problem": {"name": "perceptron", "params": {"d": 5, "m": 200, "gamma": 0.2}},
        "optimizer": {"name": "ngd_oracle",
                      "params": {"T": 300, "eta": 0.05, "x1": [1.0, 0.0, 0.0, 0.0, 0.0]}},
    },
    "ngd_idealized_glm": {
        "problem": {"name": "idealized_glm", "params": {"d": 4, "m": 200, "W": 2.0}},
        "optimizer": {"name": "ngd", "params": {"T": 300, "eta": 0.05, "x1": X1_GLM}},
    },
    "sngd": {
        "problem": GLM,
        "optimizer": {"name": "sngd", "params": {"T": 300, "eta": 0.05, "x1": X1_GLM}},
        "sweep": {"param": "b", "values": [1, 10]},
    },
    # an odd b: all 300 minibatches are rows of one chunk of 2340
    "sngd_odd_b": {
        "problem": GLM,
        "optimizer": {"name": "sngd", "params": {"T": 300, "eta": 0.05, "x1": X1_GLM, "b": 7}},
    },
    # 25 minibatches a chunk: a run spans 12 chunks
    "sngd_many_blocks": {
        "problem": GLM,
        "optimizer": {"name": "sngd",
                      "params": {"T": 300, "eta": 0.05, "x1": X1_GLM, "b": 646}},
    },
    # an odd b that spans 12 chunks of 25 minibatches
    "sngd_odd_b_many_blocks": {
        "problem": GLM,
        "optimizer": {"name": "sngd",
                      "params": {"T": 300, "eta": 0.05, "x1": X1_GLM, "b": 645}},
    },
    "sngd_lower_bound": {
        "problem": {"name": "lower_bound", "params": {"eps": 0.1}},
        "optimizer": {"name": "sngd", "params": {"T": 300, "eta": 0.1, "x1": [0.0], "b": 2}},
    },
    "gd": {
        "problem": {"name": "cliff_plateau", "params": {"plateau_slope": 0.5}},
        "optimizer": {"name": "gd", "params": {"T": 300, "x1": [3.0],
                                               "schedule": {"eta0": 1.0, "gamma": 1e-2}}},
    },
    # single-sample SGD: msgd at its default b = 1
    "sgd": {
        "problem": GLM,
        "optimizer": {"name": "msgd",
                      "params": {"T": 300, "x1": X1_GLM, "schedule": {"eta0": 0.1}}},
    },
    "msgd": {
        "problem": GLM,
        "optimizer": {"name": "msgd",
                      "params": {"T": 300, "b": 8, "x1": X1_GLM, "schedule": POLY}},
    },
    "nesterov_momentum": {
        "problem": GLM,
        "optimizer": {"name": "nesterov",
                      "params": {"T": 300, "b": 8, "x1": X1_GLM,
                                 "schedule": {**POLY, "momentum": 0.9}}},
    },
    "nesterov_zero_momentum": {
        "problem": GLM,
        "optimizer": {"name": "nesterov",
                      "params": {"T": 300, "b": 8, "x1": X1_GLM, "schedule": POLY}},
    },
}

DIGESTS = {
    "gd": {
        "trace_trial000.csv":
            "01704532067cadae8c0d9aad2f956aa7507149dc766453d60f913bd22304401e",
        "trace_trial001.csv":
            "01704532067cadae8c0d9aad2f956aa7507149dc766453d60f913bd22304401e",
    },
    "msgd": {
        "trace_trial000.csv":
            "3f42c92baf086c7c7c06a14c32e9e929b3398e1150091930acf8d4f2f2ed6ef8",
        "trace_trial001.csv":
            "f918d3181506fdeff1a2807735e86edf4b9aff2d9517336ac79027fcb7c4723a",
    },
    "nesterov_momentum": {
        "trace_trial000.csv":
            "3f163e4737798c7259126a8836599bf6d3e3f26d0faecb5a89f7a52c9ef719a9",
        "trace_trial001.csv":
            "58a608c3434709181429e0bb43996d95f51f2c72ade9a2d2c5659183c131e036",
    },
    "nesterov_zero_momentum": {
        "trace_trial000.csv":
            "3f42c92baf086c7c7c06a14c32e9e929b3398e1150091930acf8d4f2f2ed6ef8",
        "trace_trial001.csv":
            "f918d3181506fdeff1a2807735e86edf4b9aff2d9517336ac79027fcb7c4723a",
    },
    "ngd_idealized_glm": {
        "trace_trial000.csv":
            "59ee3818080d7cf82a32f8c929a3bd3186576f0ed35d8c32f295f5f2333ffff4",
        "trace_trial001.csv":
            "59ee3818080d7cf82a32f8c929a3bd3186576f0ed35d8c32f295f5f2333ffff4",
    },
    "ngd_oracle": {
        "trace_trial000.csv":
            "91e85c542205e5c06dffc740474a6a2556e7bf30b338837e628e8e57661cd5aa",
        "trace_trial001.csv":
            "91e85c542205e5c06dffc740474a6a2556e7bf30b338837e628e8e57661cd5aa",
    },
    "ngd_projected": {
        "trace_trial000.csv":
            "5145b349381cbe4a6bf07724fabd47f67aace9b251ff590e2bd3edfa43e48c2b",
        "trace_trial001.csv":
            "5145b349381cbe4a6bf07724fabd47f67aace9b251ff590e2bd3edfa43e48c2b",
    },
    "ngd_projected_long": {
        "trace_trial000.csv":
            "d30221da75c823d0b8864a0a0ba8cde3563fc438c64da45beb214ff75ab5004c",
        "trace_trial001.csv":
            "d30221da75c823d0b8864a0a0ba8cde3563fc438c64da45beb214ff75ab5004c",
    },
    "sgd": {
        "trace_trial000.csv":
            "282a4693ca41f7a83c57cab04635b50d2b9201f2ad365f245398ae91f320eb90",
        "trace_trial001.csv":
            "84144f5db1b3e3de0417a67d20050f3393fa65485e0b74c8f56f985e95783290",
    },
    "sngd": {
        "trace_trial000_b-1.csv":
            "1f479af26fb16a4219cd50a89e48e0f419b38dd5adc22579c72feece337ed087",
        "trace_trial000_b-10.csv":
            "fc30e908dc95d105144104f51e9d2c2d2a214393ce078d3e489c814d450b0755",
        "trace_trial001_b-1.csv":
            "7226681a627d445ede00fc74dcc3b4cd0316cbded1c5067bffd58cd52d9d2c4e",
        "trace_trial001_b-10.csv":
            "b66a17387759b57e71ad3233c786b0ba03b42f29b355f0e346f810600a6c139c",
    },
    "sngd_many_blocks": {
        "trace_trial000.csv":
            "8360191a498df89792410387e4b3c3aa7c0d5d99d1ef1b8d90cb2ac0408aa744",
        "trace_trial001.csv":
            "60587eef693918584ba033d5873cb0d12065d6a595a0de5a48d8f63ab2759bde",
    },
    "sngd_odd_b_many_blocks": {
        "trace_trial000.csv":
            "d123ef296802bf61b3e9b1306d3257e8a14c1942b5b58433097566b3230de31b",
        "trace_trial001.csv":
            "5dc5bdeb5c02ee4c4529ee85a70e4b381e724947c76a37d7ae4a9e5dea329dc3",
    },
    "sngd_odd_b": {
        "trace_trial000.csv":
            "512b28f4cd10b855ac897ce9b88939d48f5cb6d5d83ffe41a3cd51e8a52babe1",
        "trace_trial001.csv":
            "4d4f6bc0c40ff7ece2932feb35020729486699ba90a7afca53c1808cf30feb6d",
    },
    "sngd_lower_bound": {
        "trace_trial000.csv":
            "470be7a8c664135145074252f990228a1e4be3c68c7cb599c19914d378d15035",
        "trace_trial001.csv":
            "f2c435d768aad01954c4db787890f2720f531571daff07310a77a6f53faa9868",
    },
}


def _digests(case: str, tmp_path) -> dict[str, str]:
    cfg = {"schema_version": 1, "seed": 3, "trials": 2, **CASES[case]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_bytes_match_recorded_digest(case, tmp_path):
    assert _digests(case, tmp_path) == DIGESTS[case]
