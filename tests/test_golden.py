"""Pinned report bytes: one small seeded run per experiment kind and variant.

Each case renders both report formats and compares their SHA-256 with a
digest written below. A refactor that keeps results must keep these
bytes. The digests may change only together with a ``FORMAT_HEADER``
bump in ``onticsim.reports`` and a CHANGES.md entry that says why.

Run as a script from the repository root to print the ``DIGESTS`` table
of the current code, ready to paste below:

    PYTHONPATH=src python tests/test_golden.py
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
        "7a100329feb2609b5559454c5f953c366c5dbe65392ba81d45dadfae8e8911aa",
        "e8e89789b9d8374e5fac00cb480dc1c5723a95ec82dea26b12e34689a0fd8287",
    ),
    "exact-ndim-ground": (
        "f158f16aa8e564f99f566d7cd183088d71a48de350148921a50c1883e9175a07",
        "d600fbe03f5069572b16b5c6a13959779e6572a1b0b003ef389461a70caa6298",
    ),
    "exact-ndim-uniform": (
        "3320c34462660d2a6da6f5cd9665a417de68284df0bfbda6243aad15e322817b",
        "929ead5c5e4d0668b54cac31cf03bc683c442888e288430f6249ee803bee5819",
    ),
    "exact-qubit-cone": (
        "aa031a473b102a382372d1c054e2966eeb2e6a3017e63685527424176c7fde44",
        "8709a76dd9dd6d8c1ca1e3c05305c4f7b4538b7d6852ad0c5ae44ebdcd4b0e14",
    ),
    "exact-qubit-sphere": (
        "c520a50296da1ad39a67e0d52a9ef917bc331903fb1df48edcbd96d54518ad22",
        "3eb563167f32a80b97530767b0401500a3257f15b88a179cb1221b5f93a58fd6",
    ),
    "mc-ndim-ground": (
        "a69bcf5be5feddecc5317d0ac87cd88e00e48f56e10689caf2015086d1691af8",
        "9a6bd3ac28141407ec3fee38a69e6404663e37e7ba95d4d069d51457af817e0b",
    ),
    "mc-ndim-uniform": (
        "eb0fa68946edbf321750ec723d88d45d4f08c7e3c372149b511d7c7bcfded050",
        "f3bb14382a61c12e4edf073da3d8db75232b59063768617789b384f981976263",
    ),
    "mc-qubit-cone": (
        "57e96492deefc6df6830639730695583b8f065f52596a31544b62a8ff5de3218",
        "0eee2de0ee1ef77c3695d9131c7510ba4289d51d4722c3005e8c1c67f8fe369a",
    ),
    "mc-qubit-sphere": (
        "38ab7d5b0b5afbe7caae4fe69c75025e4c34a0416854da8029c83400bf343f03",
        "267db825c021d7d987a6b1e50a2f2c9cd72ed12d4c3a093dffb64fc12a3ca45e",
    ),
    "positivity-sweep": (
        "def38300c4107bf833c807d43725e27dc69c46f24d16af5216d8720c476de792",
        "5086f76e5c92945e74d9eab53d42bfa34cfc65195131f00f9beb90c2469bc4d6",
    ),
    "witness": (
        "cde94dc146892ffd7a04bd9b8088014aa45e0006e0bdd04829b68a0f5e18502c",
        "8ba11fb96e6b44015dc448541245c9ef47ebccca0ca4424d74e96e596675755b",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(name: str) -> tuple:
    report = run_experiment(ExperimentConfig(seed=SEED, **CASES[name]))
    return _sha(render_structured(report)), _sha(render_tabular(report))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name):
    assert _digests(name) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted(CASES):
        structured, tabular = _digests(name)
        print(f'    "{name}": (\n        "{structured}",\n        "{tabular}",\n    ),')
    print("}")
