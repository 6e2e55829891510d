"""Golden outputs of the command line.

SHA-256 of every file each command writes, recorded once and pinned so that
a refactor of the pipelines under the CLI cannot change a report, a map or a
generated dataset by even one byte. The reports carry ``tool_version``, so a
version bump changes the report digests and they must be recorded again.
The digests were recorded with numpy 2.4 and scipy 1.17; another LAPACK
build may move the last bits of a fitted value and with them the digest of
a fit report.
"""

import hashlib

import pytest

from cavitylab import cli

_README_DISPERSION = (
    "dispersion --lambda-exc 533.3 --lambda-det 618.5 --roc 24 "
    "--l-min 2 --l-max 6 --tol-nm 25"
)
_PER_AXIS_PLANE_WAVE = (
    "dispersion --lambda-exc 533.3 --lambda-det 618.5 --roc-x 22 --roc-y 26 "
    "--roc-mode per-axis --gouy off --l-min 2 --l-max 6 --tol-nm 25"
)
_THREE_ORDERS = _README_DISPERSION + " --transverse-orders 0,1,2"
_README_BUDGET = (
    "purcell-budget --tau0 21.7 --tau-p 12.2 --qe 0.8 --dw 0.56 --branching 0.8 "
    "--lambda-c 618.5 --l-eff 3.75 --roc 24 --q-ideal 56400 --kappa-exp 160"
)

_PLANE_WAVE_MAP = "a2341b982fcc3dbe9ce29ea92e3230f7305bea64b539f8927f8237c121901ddf"
_LIFETIME_4K_CSV = {
    "lifetime_4k.csv": "e915f119e4808eb6ef0c4cc115c707dbafec2a6dd9ab539ec5199c12941e9553",
    "lifetime_4k.csv.truth.json":
        "42171571ecdb9924df338762ea0601b88f08acfdd02177714bbe961389ab48a3",
}

GOLDEN = {
    _README_DISPERSION: {
        "dispersion_map.csv": "72e46f2d8369fdba3a5018ba9a9b773d870ac67722654cece68d1da0c9c27d62",
        "dispersion_report.json":
            "c87b5f3a1e555f5077da0fef3b78814811d1f2d2ad2404418332cfb19c8f3722",
    },
    _THREE_ORDERS: {
        # the candidates do not depend on the orders mapped
        "dispersion_map.csv": "d6d132a11516a07f77e9998adec3fbdc8a773e7a6d59f2aae62e84d634a03a0c",
        "dispersion_report.json":
            "c87b5f3a1e555f5077da0fef3b78814811d1f2d2ad2404418332cfb19c8f3722",
    },
    _PER_AXIS_PLANE_WAVE: {
        # without the Gouy phase the map does not depend on the radius
        "dispersion_map_x.csv": _PLANE_WAVE_MAP,
        "dispersion_map_y.csv": _PLANE_WAVE_MAP,
        "dispersion_report.json":
            "25db2ace5fd01fa9f305e27aef928e1cb2ae3bd835c30352f0211eb19c853a5b",
    },
    _README_BUDGET: {
        "purcell_budget.json": "4191087aee9843b256078d2cce0d58f91696a97f21342853b5fa56629d2bc3a4",
    },
    "fit --preset g2_dip --seed 7": {
        "fit_report.json": "9676e37d571fce3ce529cef9ef0e6e65735556dfb55ba08b24113a52ec378de3",
        "g2_dip.csv": "87bdcae95d96ed0d2b4c331d15cca253b66baf8747f467e77b6d024ecd576cab",
        "g2_dip.csv.truth.json": "e8715df6d5781bfe1431a53890159f50eef20b193c7492ffd1f1e2e66ff63f8b",
    },
    "fit --preset lifetime_100k --seed 7": {
        "fit_report.json": "eb6fd305b43b0371a5e4eb0a571efb2a1b51b685ffe4822070b9064c2dac8973",
        "lifetime_100k.csv": "eca883011ddd83d5eda779159c886c31be3122d66ba95f91125c551b6c31aed9",
        "lifetime_100k.csv.truth.json":
            "32b3bd744327124173b7bd96e6b03e3cf03becd8f30137c9dabc941e622918ce",
    },
    "fit --preset lifetime_40k --seed 7": {
        "fit_report.json": "178252730d3dfe7a2a0f94b8bfbfa3781fcdbfc5410b8dc478100af1bc968128",
        "lifetime_40k.csv": "d5938deb3b41c13f2e334cbad7b4df1a7bb8feb35ed9624215872975ef2ae611",
        "lifetime_40k.csv.truth.json":
            "9b790204ffc7adcd6acb2a5e6e4751e41745ad4054928e1b5623e5649d626aa5",
    },
    "fit --preset lifetime_4k --seed 7": {
        "fit_report.json": "9a1f2266adae075a92e61221e15dc85f8db942055f364749aa9938a7eecf17c3",
        **_LIFETIME_4K_CSV,
    },
    "fit --preset saturation_100k --seed 7": {
        "fit_report.json": "51ccc6be90878ffd25c9715aa8cca62bf3d437d16d7fb4bed74754ab5a95e933",
        "saturation_100k.csv": "34d9a170ef06453564e4de9813e6e9f49574499b517a82bec98b778b10d6318c",
        "saturation_100k.csv.truth.json":
            "9c3d87a4da6279f7cb7e23a1a63a7cf9face93e71c5cd95a7d28d8e8a8eb0ea7",
    },
    "fit --preset saturation_10k --seed 7": {
        "fit_report.json": "861648c6938b33e6a7d06e99b0e93a850a79d04482b24bbd47d6088ffc9e86ee",
        "saturation_10k.csv": "7415874a2871a99748969e33f022232dae69cb47906296de5df427ec8ab3378d",
        "saturation_10k.csv.truth.json":
            "403b3cc98c6fb3c3e39820e1732eb595ec61ed12a65dffda5e4b2b6530042550",
    },
    "fit --preset saturation_40k --seed 7": {
        "fit_report.json": "dc561629977ef4b8e1704ebe97ae852ce3a7ce99aea6bca3fe8ae4a9c39fea71",
        "saturation_40k.csv": "ea18adf7bce5dabe629cdadfd0fbb0b99f94ac48e8d6d3b288240ee32db40685",
        "saturation_40k.csv.truth.json":
            "cedccf70ae4fdc49c9dbe6126509d9f465c61bf13a61df0ccbba307c6d5bbf71",
    },
    "fit --preset lifetime_4k --seed 7 --bootstrap 20": {
        "fit_report.json": "ff408b4af9681f94513eedd30de826854e57b2adb971b65782746193ef162359",
        **_LIFETIME_4K_CSV,
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_outputs_byte_identical(command, tmp_path):
    assert cli.main(command.split() + ["--out", str(tmp_path)]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert written == GOLDEN[command]
