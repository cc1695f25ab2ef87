"""Golden digests of `slqcopt check` reports, one case per checker path.

Each case runs the CLI and compares the SHA-256 of what it prints with a
recorded digest, so any change to the property checkers that moves a single
byte of a report (a verdict, a margin, a counterexample) fails here.  The
digests were recorded with Python 3.11 and numpy 2.4 on x86-64; a different
platform may round differently and needs its own recording (print
`_digest(...)` for each case).
"""

import hashlib

import pytest

from slqcopt.cli import main

CASES = {
    "slqc_sigmoid_sum_grid": ["sigmoid_sum", "slqc", "--grid", "10"],
    # kappa 0.05 makes 8 of the 50 reports fail, so their margins are pinned
    "slqc_sigmoid_sum_failures": ["sigmoid_sum", "slqc", "--grid", "5",
                                  "--eps-grid", "0.1,1", "--kappa", "0.05"],
    "slqc_idealized_glm": ["idealized_glm", "slqc", "--points", "50"],
    "slqc_perceptron_oracle": ["perceptron", "slqc", "--points", "50"],
    "sublevel_counterexample": ["counterexample", "sublevel"],
    # found on the 25th sampled pair, so the order of the random draws is pinned
    "sublevel_sigmoid_sum_sampled": ["sigmoid_sum", "sublevel", "--alpha", "1.5",
                                     "--trials", "3000"],
    "lipschitz_idealized_glm": ["idealized_glm", "lipschitz", "--bound", "1",
                                "--radius", "0.5", "--trials", "500"],
    "smooth_idealized_glm": ["idealized_glm", "smooth", "--bound", "2",
                             "--radius", "0.5", "--trials", "500"],
    # the first violations are sampled pairs 1146 and 224 (from 0), in chunks
    # 8 and 1, so the per-chunk ball draws are pinned across more than a
    # thousand pairs; a failing report's trials counts the pairs up to it
    # (1147 and 225)
    "smooth_idealized_glm_violation": ["idealized_glm", "smooth", "--bound", "0.0126",
                                       "--radius", "12", "--trials", "2000"],
    "lipschitz_sigmoid_sum_violation": ["sigmoid_sum", "lipschitz", "--bound", "0.003",
                                        "--radius", "5", "--trials", "2000"],
    # the first violation is sampled pair 318 (from 0), in chunk 2, past the
    # first chunk of pairs; trials reports 319
    "lipschitz_idealized_glm_violation": ["idealized_glm", "lipschitz", "--bound", "0.028",
                                          "--radius", "2", "--trials", "2000"],
}

DIGESTS = {
    "slqc_sigmoid_sum_grid":
        "d8792af45dccba69003925bfd30605417876b63f2fb4ab0d1305fa8860314242",
    "slqc_sigmoid_sum_failures":
        "1d3ff733e9539ac2953b92eb89baa28df3465855c5619764e1b8ba8e4e3ad2e8",
    "slqc_idealized_glm":
        "c834f9d3777d76e74983ac71359ed579cf25500292780fd2dd78836251bf77c4",
    "slqc_perceptron_oracle":
        "97bda09175e64719c168de59a3807d0cb6548ea6fbf037792ec3c0606f3b3576",
    "sublevel_counterexample":
        "37f5fa2665091e34026275c99d36f03f4c7ac75dd3d92b81d1a52d9e6a12acce",
    "sublevel_sigmoid_sum_sampled":
        "ed304176c2c1f1c22f0774f058569688ff6b96526800c5b1d4dcc287579daf63",
    "lipschitz_idealized_glm":
        "7eb55833bd62c54d65d598c503dbc2b09301111a5397a5172a5e406723366fad",
    "smooth_idealized_glm":
        "1e1631fa17c115f75d69f5ea4b936544c085de808c9dd5aae3a1e9412513115f",
    "smooth_idealized_glm_violation":
        "96c1f6625e6676cdabe8543f42d4c834ccc45565f7d5a964ac29190e7f0e7c8e",
    "lipschitz_sigmoid_sum_violation":
        "f32915e2aeac029a47efefaa21ae407df5c4f93cdbd22b7dd0cdf009706c08de",
    "lipschitz_idealized_glm_violation":
        "857ec107555bfd0fb61f397a733686a082db135ad019a6d7625405afc8e86d39",
}


def _digest(case: str, capsys) -> str:
    capsys.readouterr()
    assert main(["check", *CASES[case]]) == 0  # a failing property still exits 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_report_matches_recorded_digest(case, capsys):
    assert _digest(case, capsys) == DIGESTS[case]
