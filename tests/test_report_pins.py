"""The report files, pinned by sha256: each case runs `cardskill analyze`
through cli.main on small simulated logs made from fixed seeds, or the
library battery once, and compares the digest of every file it writes.
Input and output paths are relative to the case's directory and sys.argv
is set as the console script sets it, so the manifest is the same on every
machine. A deliberate change to the reports updates PINS in the same
change. Print the table of the current code with

    PYTHONPATH=src python tests/test_report_pins.py
"""

import codecs
import contextlib
import functools
import io
import json
import os
import sys
import tempfile

import pytest

from cardskill import cli, report
from cardskill.report import build_manifest, write_reports
from cardskill.simgen import SimConfig, simulate, simulate_cohort

POKER_2 = SimConfig(game="poker", table_size=2, n_players=200,
                    games_per_player=80, mode="skill", skill_sd=0.5,
                    learning_b=0.4, stagger_starts=True, seed=61)
POKER_6 = SimConfig(game="poker", table_size=6, n_players=300,
                    games_per_player=80, min_games_per_player=50,
                    mode="chance", seed=62)
RUMMY_3 = SimConfig(game="rummy", table_size=3, n_players=240,
                    games_per_player=80, mode="skill", skill_sd=0.4,
                    learning_b=0.3, seed=63)
RUMMY_6 = SimConfig(game="rummy", table_size=6, n_players=300,
                    games_per_player=80, min_games_per_player=50,
                    mode="chance", seed=64)
THRESHOLDS = {"r_min": 0.2, "threshold_r2": 0.99}


@functools.lru_cache(maxsize=None)
def _log(config: SimConfig) -> bytes:
    return simulate(config)[0]


def _dirty_rummy() -> dict:
    """RUMMY_3's log in two files, the first with a UTF-8 byte-order mark,
    and one row of each kind of reject."""
    header, *rows = _log(RUMMY_3).decode().splitlines()
    names = header.split(",")

    def broken(i, name, text):
        cells = rows[i].split(",")
        cells[names.index(name)] = text
        rows[i] = ",".join(cells)
    broken(10, "is_winner", "2")
    broken(200, "game_start", "2022-13-01T00:00:00Z")
    broken(3000, "loss_points", "-5")
    broken(7000, "max_players", "")
    rows[9000] = ",".join(rows[9000].split(",")[:5])
    half = len(rows) // 2
    return {"a.csv": codecs.BOM_UTF8 + "\n".join(
                [header, *rows[:half]]).encode() + b"\n",
            "b.csv": "\n".join([header, *rows[half:]]).encode() + b"\n"}


def _analyze(config, *flags, extra=None):
    """A case of config's log and extra's files, analyzed with flags."""
    name = f"{config.game}{config.table_size}.csv"
    return (lambda: {name: _log(config), **(extra or {})},
            ["analyze", name, "--game", config.game,
             "--table-size", str(config.table_size), *flags])


CASES = {
    **{f"poker-2-{m}": _analyze(POKER_2, "--metric", m)
       for m in ("win_rate", "bb_per_100", "tightness", "avg_blind_lost")},
    **{f"poker-6-{m}": _analyze(POKER_6, "--metric", m)
       for m in ("win_rate", "bb_per_100", "tightness", "avg_blind_lost")},
    **{f"rummy-{c.table_size}-{m}": _analyze(c, "--metric", m)
       for c in (RUMMY_3, RUMMY_6)
       for m in ("win_rate", "avg_points_lost_losing",
                 "net_positive_share")},
    "rummy-two-files-dirty": (
        _dirty_rummy, ["analyze", "a.csv", "b.csv", "--game", "rummy",
                       "--table-size", "3", "--min-games", "20"]),
    "split-date": _analyze(POKER_2, "--split-date", "2023-01"),
    "thresholds": _analyze(RUMMY_3, "--thresholds", "th.json", extra={
        "th.json": json.dumps(THRESHOLDS).encode()}),
    "quantile-groups": _analyze(RUMMY_6, "--quantile-groups", "5"),
}


def _battery(out: str) -> None:
    """cli.battery on POKER_2's cohort, with a fixed manifest."""
    write_reports(out, cli.battery(simulate_cohort(POKER_2), seed=5),
                  build_manifest(["cardskill"], {"seed": 5}, [], 5, 0, 1))


def _run(case: str) -> dict:
    """The digest of each file that case writes, by name, in the current
    directory."""
    if case == "battery":
        _battery("out")
    else:
        inputs, argv = CASES[case]
        for name, data in inputs().items():
            with open(name, "wb") as f:
                f.write(data)
        sys.argv = ["cardskill", *argv, "--out", "out"]
        assert cli.main(sys.argv[1:]) == cli.EXIT_OK
    return {name: report.file_digest(os.path.join("out", name))
            for name in sorted(os.listdir("out"))}


PINS = {
    "poker-2-win_rate": {
        "learning.csv":
            "eeda5a1e2a05334e6de6af857bb9a13f848514712d5087dab54db8a9bd86e561",
        "persistence.csv":
            "9c9d23b41bab044453a3c434d1824e88dc7adb70c95234f4bd8a317b7ff477c1",
        "qq.csv":
            "c4f8af50888cf73baed72b01636f59288dc4d0d32c6437cce441259e16cccf54",
        "quantiles.csv":
            "83b05186e9850269c7cd1d9283cd471a50e05dd9f7e601b91fa1177a624aff87",
        "verdict.json":
            "d0a38bc867f0972fdeceeafb25268cff97f258b2a009584a4b6d8b6fc961302b",
    },
    "poker-2-bb_per_100": {
        "learning.csv":
            "9513555a70dc138acfc649ef71800d9af8c2495351d75c8538626c69c8716812",
        "persistence.csv":
            "9a6dbdf70f4e9b8427a2e254a72ab5a32f2530f05244bdd3059fb9851eff4b29",
        "qq.csv":
            "c4f8af50888cf73baed72b01636f59288dc4d0d32c6437cce441259e16cccf54",
        "quantiles.csv":
            "83b05186e9850269c7cd1d9283cd471a50e05dd9f7e601b91fa1177a624aff87",
        "verdict.json":
            "97718e8ec6d7d36342bf9d77d7bf564516255eeccfa8fdae448ec5242130c035",
    },
    "poker-2-tightness": {
        "learning.csv":
            "2711b1ab2695d87feb7019a2a914d41c4bfd4bc4b5f74705cd038b233299aa4d",
        "persistence.csv":
            "e07f86c54e1abf237e4822ca5d04a1f9fe411e9d1e26962bb433982e442d68cc",
        "qq.csv":
            "c4f8af50888cf73baed72b01636f59288dc4d0d32c6437cce441259e16cccf54",
        "quantiles.csv":
            "83b05186e9850269c7cd1d9283cd471a50e05dd9f7e601b91fa1177a624aff87",
        "verdict.json":
            "c67c7f80383420819008507370fd40627e2f2dc938ae81bc7c8cf2d0a690222f",
    },
    "poker-2-avg_blind_lost": {
        "learning.csv":
            "c6405798cf8f47ecb10752b2be1d57a07dd48281ae536d50021fbdec7818b4cd",
        "persistence.csv":
            "ec632c7299959665bdf00e9a790c78c10761ef9541aba5a44f05953015abc9e2",
        "qq.csv":
            "c4f8af50888cf73baed72b01636f59288dc4d0d32c6437cce441259e16cccf54",
        "quantiles.csv":
            "83b05186e9850269c7cd1d9283cd471a50e05dd9f7e601b91fa1177a624aff87",
        "verdict.json":
            "e3eb7fa4881405a277649276e5ed841591f3f61a4c42e1c6e5141a14654feaf0",
    },
    "poker-6-win_rate": {
        "learning.csv":
            "6bcfe3558f23a45057927f7e9754c48a2c903993c9f841d9d2c6c0896e664e10",
        "persistence.csv":
            "0de6dfc86e629d893a2cb7e91ef45ac1c567122724366e53d26d88630fff3720",
        "qq.csv":
            "e746253bc9928c12ae55b26572247242d18d08abe47dabc765a7e9951b39af16",
        "quantiles.csv":
            "76653959e6d350e4267df9ce93be58ab94363c98890960a3bf9d81921cf3622f",
        "verdict.json":
            "1a1a62612120755dc5810d6aa3a37e7ff99eff3c4940050a5f59155cce4991ae",
    },
    "poker-6-bb_per_100": {
        "learning.csv":
            "9777c75db62a6990db82b8d3da17eb3ed07fbd87b927db013596b3b0186ef756",
        "persistence.csv":
            "ec574dbeed73b20f0e8c965727f12c5e8acf0f629c0ec8a80a0cffc6f166f522",
        "qq.csv":
            "e746253bc9928c12ae55b26572247242d18d08abe47dabc765a7e9951b39af16",
        "quantiles.csv":
            "76653959e6d350e4267df9ce93be58ab94363c98890960a3bf9d81921cf3622f",
        "verdict.json":
            "254625a0b49a589c454de69a11ac7b2022c31d137c553ab44ca60d60df134099",
    },
    "poker-6-tightness": {
        "learning.csv":
            "02f2c46d262022a023a459c20a09f4fb197e05419a5cacd566d6aec57eb21a44",
        "persistence.csv":
            "87595ca17840698d2a574505714d691034583edfa55ca89b8942e49ed2844471",
        "qq.csv":
            "e746253bc9928c12ae55b26572247242d18d08abe47dabc765a7e9951b39af16",
        "quantiles.csv":
            "76653959e6d350e4267df9ce93be58ab94363c98890960a3bf9d81921cf3622f",
        "verdict.json":
            "227f94e25faea8d77b03fcc9969df9b2a064096b09c627f2666c122e9d9949c7",
    },
    "poker-6-avg_blind_lost": {
        "learning.csv":
            "598aee54611265186ed45f3bccb962a5de5de9c05ec4d4cd728a7f4aa4aadcf8",
        "persistence.csv":
            "bb2707ee9ca78df8fc1755858cba507cee9ae0cb52b3a6fe9f1a3b6f6c0e3c7c",
        "qq.csv":
            "e746253bc9928c12ae55b26572247242d18d08abe47dabc765a7e9951b39af16",
        "quantiles.csv":
            "76653959e6d350e4267df9ce93be58ab94363c98890960a3bf9d81921cf3622f",
        "verdict.json":
            "64bd793d858b58aa87e0d9d8dec91dfd9388953fdcab3abcf22667a2244d04dc",
    },
    "rummy-3-win_rate": {
        "learning.csv":
            "e7d25627dbdd196fd9ef7ebd70cc88800bfb1eb026e0c40f49ef9d1e35f1ff58",
        "persistence.csv":
            "7bcbc4860036d060737af38660752dbac79426bd4e8b8a7b4aec7527911da674",
        "qq.csv":
            "fead8ff9ddeedcd766640049ef15c48686fb3c484c76fe2a95dbac925aa28313",
        "quantiles.csv":
            "bb1bd7d06bc48c35ea911062277710a1ebb1addb2deaaaa9957beb42622e585b",
        "verdict.json":
            "6a583cb84038cae7bdbbe5fbb86127d9996fc0265c3faee7761871c9c749a6e2",
    },
    "rummy-3-avg_points_lost_losing": {
        "learning.csv":
            "9af729881f66ad474674ca8cf0b0443b7c837daa047106fa669652d64325ca9c",
        "persistence.csv":
            "92cf6d1d0e456ae93c94bccc736a92ce553e65f19a8fcd983c04ce32aacb5b16",
        "qq.csv":
            "fead8ff9ddeedcd766640049ef15c48686fb3c484c76fe2a95dbac925aa28313",
        "quantiles.csv":
            "bb1bd7d06bc48c35ea911062277710a1ebb1addb2deaaaa9957beb42622e585b",
        "verdict.json":
            "d1772c6951984c7c5f81f840c5ef197f33a0822259c3f68968365109f55ee930",
    },
    "rummy-3-net_positive_share": {
        "learning.csv":
            "49e52f0a0a8364a65e3f118ee5342b60988f6984058e647083fd63450a0e250d",
        "persistence.csv":
            "02b95e3c755f86324e5641d1b738beab480daffbf083b95689f1adc02ff682f4",
        "qq.csv":
            "fead8ff9ddeedcd766640049ef15c48686fb3c484c76fe2a95dbac925aa28313",
        "quantiles.csv":
            "bb1bd7d06bc48c35ea911062277710a1ebb1addb2deaaaa9957beb42622e585b",
        "verdict.json":
            "010d15e96c0de98dd107b0c0455ecfdc8fd223518e66d149306e52c2eca739ff",
    },
    "rummy-6-win_rate": {
        "learning.csv":
            "2634fa8665b2994b6865f3fe8a43f3d5cdd1c01890c6647dd28c72db2337bafa",
        "persistence.csv":
            "2cdb5457131166c26a3fea584c10d5605f53f4a0b69a04dda4b86b2542cbddf8",
        "qq.csv":
            "c58eab22948678190cc16f0fc1f8c259edb1d0c7ac3acfa681b66f9c340cf6fc",
        "quantiles.csv":
            "ad07770f28003905550e39d44514e3f4728a4e51c755f94c50c73e08f47fc13c",
        "verdict.json":
            "22cbad648574afa5564039b4cf80bf2a519e702e229ee2b4bbf7c8230f88532e",
    },
    "rummy-6-avg_points_lost_losing": {
        "learning.csv":
            "da78fe3d117b42b73f64b3c433d03fcd7800c8c0eca0631b8c126e436c80c2ec",
        "persistence.csv":
            "90a67d35c3764e384fee50ca919357fc2a7a9c74f0e588ea7eab104fbfcbaba0",
        "qq.csv":
            "c58eab22948678190cc16f0fc1f8c259edb1d0c7ac3acfa681b66f9c340cf6fc",
        "quantiles.csv":
            "ad07770f28003905550e39d44514e3f4728a4e51c755f94c50c73e08f47fc13c",
        "verdict.json":
            "bb3a0f2ab88aa004aa21d9054db6006fcdebc2e37ea16c4b6daaa14a469ebed8",
    },
    "rummy-6-net_positive_share": {
        "learning.csv":
            "fd20b505b310917548e8f95ac718b87727eabfb902965b7731044df6841381c6",
        "persistence.csv":
            "491c2574f6d4da7200a07afd23339526daee7f620348ba9f51599448baa84f8d",
        "qq.csv":
            "c58eab22948678190cc16f0fc1f8c259edb1d0c7ac3acfa681b66f9c340cf6fc",
        "quantiles.csv":
            "ad07770f28003905550e39d44514e3f4728a4e51c755f94c50c73e08f47fc13c",
        "verdict.json":
            "18684fd3db4f60bd2e49b196a9d275e92c48a4e16837f1a2b50f9a31f80e9f3e",
    },
    "rummy-two-files-dirty": {
        "learning.csv":
            "cc1a4efd0c2f6397aecb5feddea20b75c884238d7306715fe6663e5db5f757da",
        "persistence.csv":
            "67bac7e8d8e794a662e50eadb14869836ba39569c0f91105393034c3d979cb7e",
        "qq.csv":
            "c47479a90a1bc475e04e20bf6ffc6434903085ce5b4c6064c9a17fe132b407c4",
        "quantiles.csv":
            "dfcfa8249e85c01641edeaa386c8b075ff92fee6beb361a4313690a4ebfa9fc5",
        "verdict.json":
            "dbbbe0922f42e556b237dc367f8a7d690c527e2fc6debfefc7d8fdbafde8b632",
    },
    "split-date": {
        "learning.csv":
            "eeda5a1e2a05334e6de6af857bb9a13f848514712d5087dab54db8a9bd86e561",
        "persistence.csv":
            "9c9d23b41bab044453a3c434d1824e88dc7adb70c95234f4bd8a317b7ff477c1",
        "qq.csv":
            "c4f8af50888cf73baed72b01636f59288dc4d0d32c6437cce441259e16cccf54",
        "quantiles.csv":
            "83b05186e9850269c7cd1d9283cd471a50e05dd9f7e601b91fa1177a624aff87",
        "verdict.json":
            "50579f58b1e476943cc3a0f8416ecfc3829462a1e5c2e9f1c5d7fc582257ebf5",
    },
    "thresholds": {
        "learning.csv":
            "e7d25627dbdd196fd9ef7ebd70cc88800bfb1eb026e0c40f49ef9d1e35f1ff58",
        "persistence.csv":
            "7bcbc4860036d060737af38660752dbac79426bd4e8b8a7b4aec7527911da674",
        "qq.csv":
            "fead8ff9ddeedcd766640049ef15c48686fb3c484c76fe2a95dbac925aa28313",
        "quantiles.csv":
            "bb1bd7d06bc48c35ea911062277710a1ebb1addb2deaaaa9957beb42622e585b",
        "verdict.json":
            "b7d5d916a88abd95b2b8055ef8be76d03a1d16f1d096f72339e69fb8564360c0",
    },
    "quantile-groups": {
        "learning.csv":
            "2634fa8665b2994b6865f3fe8a43f3d5cdd1c01890c6647dd28c72db2337bafa",
        "persistence.csv":
            "2cdb5457131166c26a3fea584c10d5605f53f4a0b69a04dda4b86b2542cbddf8",
        "qq.csv":
            "c58eab22948678190cc16f0fc1f8c259edb1d0c7ac3acfa681b66f9c340cf6fc",
        "quantiles.csv":
            "76af0aacd4915caa1b75669e9c063f6ac2afc52aa826eeb329229bc87d6306ae",
        "verdict.json":
            "271dd0126ee587ed9e54d32a1ca59795e6f93dd007d11f7d31fd76d3540b07e0",
    },
    "battery": {
        "learning.csv":
            "eeda5a1e2a05334e6de6af857bb9a13f848514712d5087dab54db8a9bd86e561",
        "persistence.csv":
            "9c9d23b41bab044453a3c434d1824e88dc7adb70c95234f4bd8a317b7ff477c1",
        "qq.csv":
            "c4f8af50888cf73baed72b01636f59288dc4d0d32c6437cce441259e16cccf54",
        "quantiles.csv":
            "83b05186e9850269c7cd1d9283cd471a50e05dd9f7e601b91fa1177a624aff87",
        "verdict.json":
            "71e078c9dbbf47bc38b8856c4d8606cceeffbe3a07cba569eeff7c3ab6a35efb",
    },
}


@pytest.mark.parametrize("case", [*CASES, "battery"])
def test_report_digests(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    assert _run(case) == PINS[case]


if __name__ == "__main__":
    saved = os.getcwd()
    print("PINS = {")
    for case in [*CASES, "battery"]:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            with contextlib.redirect_stdout(io.StringIO()):
                digests = _run(case)
            os.chdir(saved)
        print(f"    {json.dumps(case)}: {{")
        for name, digest in digests.items():
            print(f"        {json.dumps(name)}:\n            \"{digest}\",")
        print("    },")
    print("}")
