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
        "af646de2777901f6e8090a59aa92eb9c474c6d74a8d00b45e64217196a5e035e",
        "e8e89789b9d8374e5fac00cb480dc1c5723a95ec82dea26b12e34689a0fd8287",
    ),
    "exact-ndim-ground": (
        "d09b718bd97d969bf99419609bdd35ed17ee5cbf2f2d74e9cb62ff42d934616c",
        "b77d2e3ea24457e32aa4f2c2780eb7310f354a234450d8d4e7663012f0ced0cc",
    ),
    "exact-ndim-uniform": (
        "3c6ed2b57ad4575f1e869add8db581c73b80f774a79de839a56ae8301f16c82c",
        "160b70544864076cd6692662cf13575375887db778e891ba37a313984f75e697",
    ),
    "exact-qubit-cone": (
        "8bab3c8845076d60e995e203f2fbbe843ced23d384c00ddc7abb7a229403dc45",
        "2aa6eb6bad3d93b282cb39e99d71675db327b0d7828ade9062a5b6aa4d6eab58",
    ),
    "exact-qubit-sphere": (
        "46cbef7607ca8075b0a58b2d39b807e7b9c62b4c399d07e0b050faff076cceca",
        "9a4e7358d8d8e85945ac4e909a96e0f0d99c284c104730f374aee365944c5c5e",
    ),
    "mc-ndim-ground": (
        "2e0c85d011ec79f4a98c8852136b80fb4bfc7ced0aac1e6a72a0d0e1981c547e",
        "e9bfd5d689d8578953867e7028a1b978021de2d7906b7e3730e1745de026baac",
    ),
    "mc-ndim-uniform": (
        "d496e829d7186965abea81f7317711c2ea51e89dd820ec48ac20cfcce0a200b5",
        "4d7ee0ade7350499e9df9e32d94f5347e08cf448b52115bccc17ef6e700b02c8",
    ),
    "mc-qubit-cone": (
        "0758cfea713f65b7c4fdb9e4d57966b04e01d8f19ff647c8d0f36b370dfeb1af",
        "c39d73d3488d09982e1ccbeb84f0e2924830889e86a96e08a5870ae823338d26",
    ),
    "mc-qubit-sphere": (
        "c136a4faf90c02148557aa2e72672d7a9ea4554c86876edef6a7f390fb5c94b9",
        "4bcc1b91c289f211a4507825bb2363eaeabcc9e0a0d9e1425fb7aefd0ffc6e7f",
    ),
    "positivity-sweep": (
        "ddb9858cd011564b188b51a81130c3f3c64ca497ecac63b7e28deab4ec008620",
        "5086f76e5c92945e74d9eab53d42bfa34cfc65195131f00f9beb90c2469bc4d6",
    ),
    "witness": (
        "65a01ed6f22a630ff64ee164b89322fadc702249cf90622127197c14e80f2cec",
        "8ba11fb96e6b44015dc448541245c9ef47ebccca0ca4424d74e96e596675755b",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name):
    report = run_experiment(ExperimentConfig(seed=SEED, **CASES[name]))
    assert (_sha(render_structured(report)), _sha(render_tabular(report))) == DIGESTS[name]
