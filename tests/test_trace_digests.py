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
    # an odd b: the unused half of a 64-bit draw is carried across iterations
    "sngd_odd_b": {
        "problem": GLM,
        "optimizer": {"name": "sngd", "params": {"T": 300, "eta": 0.05, "x1": X1_GLM, "b": 7}},
    },
    # draws large enough to span several random_raw blocks per run
    "sngd_many_blocks": {
        "problem": GLM,
        "optimizer": {"name": "sngd",
                      "params": {"T": 300, "eta": 0.05, "x1": X1_GLM, "b": 646}},
    },
    # an odd b over about ten full 2^15-word blocks, each of two-iteration rows
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
            "625d2b02f9a6432769212cfe7e91a06081ff405f06a65ccb63cf6e654ca2d431",
        "trace_trial001.csv":
            "f94c73d7cb11edf1a374c672f5397a7b10d0251c0e509fc894535fc8f39cdd49",
    },
    "nesterov_momentum": {
        "trace_trial000.csv":
            "2ffa17c0e21155aedfdf82f2068be66dc9b50ea303e51fe2a23c6e12022b41be",
        "trace_trial001.csv":
            "e497ef98ce29c72e8bb68bcd0cbb0404ab7217207cd18d21bbeef6014939c0cc",
    },
    "nesterov_zero_momentum": {
        "trace_trial000.csv":
            "625d2b02f9a6432769212cfe7e91a06081ff405f06a65ccb63cf6e654ca2d431",
        "trace_trial001.csv":
            "f94c73d7cb11edf1a374c672f5397a7b10d0251c0e509fc894535fc8f39cdd49",
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
            "f3f587cb43e1c888b88f76e0a4b0e337e8629f0690fbfdcbf949d2a151491c66",
        "trace_trial001.csv":
            "b6e76bb1ea87ffe486f8b98187833792e422f0c0771de75990c388dc639544bb",
    },
    "sngd": {
        "trace_trial000_b-1.csv":
            "0802e345dda8e1a41710658c4eab2e7a5e798952148f289a65de6d342be2a3db",
        "trace_trial000_b-10.csv":
            "ec6ac398b6afddaf6771b6957a849e691b162e9572cd7a0b9f5df69fd4b8086d",
        "trace_trial001_b-1.csv":
            "a27eb923902688e26cfa7afede41307f702656c59fa5239cf018d11d6b30ee24",
        "trace_trial001_b-10.csv":
            "a0de318798ba39a346d60540960bbade9101f17a36f0b506e5b5394e054b807f",
    },
    "sngd_many_blocks": {
        "trace_trial000.csv":
            "a2ce90ea3888178eb1ee83d8a62cdc22bb0ab2c84180c2c3bad8f9d1af999234",
        "trace_trial001.csv":
            "aecb00922c51dd998fa672bf18b4675f96080d4cba78bb6401eec8871ae6e7dd",
    },
    "sngd_odd_b_many_blocks": {
        "trace_trial000.csv":
            "c9c7e4d96976f119fb6c8e261178052d1b52130e68bf6dc288ce8480c0805e5a",
        "trace_trial001.csv":
            "b8865d97451952d0a03ac5b88085e4037d94e98426ded00f3b1ddeceec78381e",
    },
    "sngd_odd_b": {
        "trace_trial000.csv":
            "3b80d661db5482036bdfcc429f0806836c2ad47c3ec7c3bcb62cb087d3477b50",
        "trace_trial001.csv":
            "9363af9a94aa2eb0739ac07b52c01a7f373c156de17b90ba5f526c66b836a050",
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
