"""Pinned report bytes: one small seeded run per experiment kind and variant.

Each case renders both report formats and compares their SHA-256 with a
digest written below. A refactor that keeps results must keep these
bytes. The digests may change only together with a ``FORMAT_HEADER``
bump in ``onticsim.reports`` and a CHANGES.md entry that says why.
"""

import hashlib

import pytest

from onticsim import ExperimentConfig, run_experiment
from onticsim.reports import render_structured, render_tabular

SEED = 11

CASES = {
    "exact-qubit-sphere": dict(kind="exact-qubit", pairs=20, region="sphere"),
    "exact-qubit-cone": dict(kind="exact-qubit", pairs=20, region="cone"),
    "mc-qubit-sphere": dict(kind="mc-qubit", pairs=10, samples=1000, region="sphere"),
    "mc-qubit-cone": dict(kind="mc-qubit", pairs=10, samples=1000, region="cone"),
    "exact-ndim-uniform": dict(kind="exact-ndim", pairs=10, dim=3, scheme="uniform"),
    "exact-ndim-ground": dict(kind="exact-ndim", pairs=10, dim=3, scheme="ground", pole_mass=0.7),
    "mc-ndim-uniform": dict(kind="mc-ndim", pairs=10, samples=1000, dim=3, scheme="uniform"),
    "mc-ndim-ground": dict(kind="mc-ndim", pairs=10, samples=1000, dim=4, scheme="ground"),
    "positivity-sweep": dict(kind="positivity-sweep", x_step=0.05, events=200),
    "covering": dict(kind="covering", pairs=500),
    "witness": dict(kind="witness", theta=0.3, phi_a=0.2, phi_b=1.9),
}

# (render_structured, render_tabular) SHA-256 per case.
DIGESTS = {
    "covering": (
        "cfa2556d791c40df85633119a09f6f3a1ad2dfc2650665f5efdc5cfa2ae2687c",
        "e8e89789b9d8374e5fac00cb480dc1c5723a95ec82dea26b12e34689a0fd8287",
    ),
    "exact-ndim-ground": (
        "123d026b42016c91b948040820c8a40731631b31bd525bc511f58faada09fdfa",
        "b77d2e3ea24457e32aa4f2c2780eb7310f354a234450d8d4e7663012f0ced0cc",
    ),
    "exact-ndim-uniform": (
        "1f7ac7ad04ecfb2bcc718d35aa1293f0e1094fc2892b7e51e57339945f09505d",
        "160b70544864076cd6692662cf13575375887db778e891ba37a313984f75e697",
    ),
    "exact-qubit-cone": (
        "19e102214c1225e64ea9d7b871c8125dee9d1b814e4c5029a7d6a438c3092445",
        "824285ba29a57ba5d99069e1d8ed6d2655c030eaf389b4da52e58897e82c4ccb",
    ),
    "exact-qubit-sphere": (
        "d8fb077b3099cd8906eca1d979ef8bc92f25c2d3eb481862c8976abcb0a2c678",
        "e58bceec9d1c344eda318a312b78b604878da9c420dead0c71990711d100f5b5",
    ),
    "mc-ndim-ground": (
        "f313b59f1bc01702763dc02b6defc8bb011f4a3fb9992e10c9bc08749f790530",
        "e9bfd5d689d8578953867e7028a1b978021de2d7906b7e3730e1745de026baac",
    ),
    "mc-ndim-uniform": (
        "44576bb2f1494405f12ea042a3b159cd63a9aeba6256b9552147b61ffc0ce148",
        "4d7ee0ade7350499e9df9e32d94f5347e08cf448b52115bccc17ef6e700b02c8",
    ),
    "mc-qubit-cone": (
        "1b2baaad88051c4911da6a256b09fadaeee93fd58f6a0c1b7cbb88247361fe28",
        "c39d73d3488d09982e1ccbeb84f0e2924830889e86a96e08a5870ae823338d26",
    ),
    "mc-qubit-sphere": (
        "0b780cb3095fc8bb4683e5666665e1ae33d2cd6c2a48e6fbd4f1eb12dca5da1a",
        "4bcc1b91c289f211a4507825bb2363eaeabcc9e0a0d9e1425fb7aefd0ffc6e7f",
    ),
    "positivity-sweep": (
        "24d13fa37fea81cbbd80f6d6ccbbbac6ea444a76b15eba3235f2cbb28425b5d8",
        "5086f76e5c92945e74d9eab53d42bfa34cfc65195131f00f9beb90c2469bc4d6",
    ),
    "witness": (
        "69a814125b6529ccf5fa4e744bcbbb360d46769083db33e9310dade5485e038c",
        "8ba11fb96e6b44015dc448541245c9ef47ebccca0ca4424d74e96e596675755b",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name):
    report = run_experiment(ExperimentConfig(seed=SEED, **CASES[name]))
    assert (_sha(render_structured(report)), _sha(render_tabular(report))) == DIGESTS[name]
