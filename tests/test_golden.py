"""Golden digests: the sha256 of every output file of every subcommand at tiny configs.

Each run is pinned at master seeds 1 and 2; manifest.json is hashed as sorted
JSON without its wall_time_s.  A refactor that keeps the outputs must keep
every digest, so a changed bit fails here, in the test suite, before any
benchmark or rerun comparison sees it.  The grids are long enough to cross
the 256-column blocks of the ensemble pipeline, and langevin_long's tables
(1501 rows of 3 values) cross the 2048-value chunks of the table writer.
ssb_wide and bec_wide span two row groups of the draw (70 realizations),
split each 257-row noise block into two (ssb) or three (bec) tiles of the
factor draw, and latch their gates in two to four different blocks, with
many realizations latching in the same step as another.  Colored noise, the
memory kernel and verify's Hubbard-Stratonovich check pin the factor draw
(``noise.factor_source``) on its own.

The digests were recorded with numpy 2.4.6 at artifact_version 0.3.0; on
another numpy the test is skipped, since numpy may draw or round differently.
A deliberate change of the outputs comes with an artifact_version bump, and
the bump re-records the table: ``python tests/test_golden.py`` prints it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ctpsim.cli import main

pytestmark = pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason=f"golden digests were recorded with numpy 2.4.6, not {np.__version__}")

# case -> config document without its master_seed; a case is named after its
# subcommand, with a suffix after "_" where the subcommand has several cases
CONFIGS = {
    "langevin": {"n_realizations": 5, "langevin": {"t_end": 20.0, "n_points": 600}},
    "ssb": {"n_realizations": 6, "ssb": {"n_points": 600}},
    "bec": {"n_realizations": 4, "bec": {"n_points": 600}},
    "inflation": {"n_realizations": 4, "inflation": {"n_points": 600}},
    "noise": {"n_realizations": 4, "noise": {"kind": "white", "n_points": 40}},
    "squeeze": {"squeeze": {"n_points": 21}},
    "noise_hadamard": {"n_realizations": 4, "noise": {"kind": "hadamard", "n_points": 40}},
    "noise_fluctuation": {"n_realizations": 4,
                          "noise": {"kind": "fluctuation", "n_points": 40}},
    "kernels_memory": {"kernels": {"kind": "memory", "n_points": 40}},
    "verify": {"verify": {"hs_realizations": 300}},
    "langevin_long": {"n_realizations": 5, "langevin": {"n_points": 1501}},
    "ssb_wide": {"n_realizations": 70, "ssb": {"n_points": 3001}},
    "bec_wide": {"n_realizations": 70, "bec": {"n_points": 3001}},
}
SEEDS = (1, 2)

# recorded at artifact_version 0.3.0 with numpy 2.4.6
GOLDEN = {
    "langevin-1": {
        "ensemble.csv": "283f3d1b9d30631037b15218032b0e92a880cf5de00d000057e6200588f386ba",
        "manifest.json": "7c88d4674a5c27760000cff16f24236d003f8504710968299f98eebf3fd4252f",
        "summary.json": "301e332864dfe0ad96aef01f21af5e4682290f232acd5d8ff807d59cf792050a",
        "trajectory0.csv": "7a47fe4f359e0b380d656898348ff743e37d68328e0fa86dd502d55a26d45b6d"
    },
    "langevin-2": {
        "ensemble.csv": "2cc001f6199042cc06c2ef0dd889cd0090cf7c837ace809df9ded81acc058f05",
        "manifest.json": "0085ed21d46fec5ab54570288eb3dcf7e51bd7376f02b96141878e9ee21e858b",
        "summary.json": "5550eb130520372ecca0c094e2f7b1bca581270dda9cd76310b0637fa78a74b3",
        "trajectory0.csv": "b9dce6d36e1a74c58ce5752700b06d5fcd059cd996cb4c8c27b18e8b1ece7349"
    },
    "ssb-1": {
        "finals.csv": "08bad623469b7377625a224d41cc8958aaa668e575a1b8f7469ecaf009e7ad47",
        "manifest.json": "02eb388d7cc002def78cc611cd40dc236f1a91abef30cc36d6251a3d039077a3",
        "mean_trajectory.csv": "23be443b9d89b529351d701cda0942a756d1faae21d2be03a571d16cebf19421",
        "report.json": "76af987adeaa455b52944daf8aafed9fca385ca94200f67be9b59b1f8a585c4d"
    },
    "ssb-2": {
        "finals.csv": "95c48404ab249204d27e3ff496330bae47d9fe8804de9e3b438e77c08bd19de6",
        "manifest.json": "877518d3ee8c51de30b99543b3f347f49f7551d2fb38e20380c90b2a5ad5911f",
        "mean_trajectory.csv": "6af8ad3f1cfa47e7937decddd58212d1a745203542248a1ccb356ee385612474",
        "report.json": "ccabfa21cd2a206eafe07d42b922570ab23776f316cf9dfa2c691764bc58462f"
    },
    "bec-1": {
        "finals.csv": "3ad813cde7d3a827adad67f1ff12344f2797d681b34bad0912911250ff7b456c",
        "manifest.json": "5cb19ec4b19e4321281fdd2d9c8f374433ffdefd9199d63f126c4f17dfec2dde",
        "report.json": "4b576bc4bd1ed3952d830be390afb4f5b02dde6821b822e74036cacf490815f4"
    },
    "bec-2": {
        "finals.csv": "7dfdeed0adf6e49146978bc57b46fa98d521e3b2c47528195b2bff4222cd54c7",
        "manifest.json": "b9135f955fcb6138f969710d2102db113acba931a2313d247ae0518d41520734",
        "report.json": "ffa53af60f5ee72ef12c9fdef1f3440a5f808d6311537e0a56212a424fda7328"
    },
    "inflation-1": {
        "manifest.json": "94184d370a418a6a82e9a58551ec47cb0b6866768632895d306b14b81f6bc26f",
        "report.json": "747f191660657020450d10090477241502d66853f2ab23cdeb43e1f345e7ec01",
        "spectrum.csv": "ec20694f947e9ab3c58895b3708028ac60d18d930fd23908920d8c13a81b42e3"
    },
    "inflation-2": {
        "manifest.json": "12f98fbf9807a175092084a04a2c8685e3c6ccc99673df2a4076259ecf5646aa",
        "report.json": "3ed7368051acbd44853a9fa316449d0974c57419294a79a4427798d0fa067fbb",
        "spectrum.csv": "9d3576464484308f2483f564e5e36c57f58e040ec7c84cc24ced5e6470f2e9de"
    },
    "noise-1": {
        "manifest.json": "611e18a6293d0475e4f6c2f8f935b829d6e4b91d6895cced423f63848f2f5d90",
        "noise.csv": "3cdb59a23fcd0f2401c8c5744ab2b61e5d98bc3b7a0e2c78d649abe5396c359b",
        "summary.json": "23849a174fb30d5e83f1bca5cfbab561d9c6e08d7d88ae9f27f93b2069081ff2"
    },
    "noise-2": {
        "manifest.json": "0969d42b12b32fe801b0cf73c8bef96f606e0acff313d5111a79351282f2946d",
        "noise.csv": "712007aede99f0e86e9180129db4813c8943a0e2eae38dfdd1e668f2616e0ef6",
        "summary.json": "2d95adb9a022dbd2fcc1993106bb77e64bb314ac8aa08a65131aa0739ee04ce3"
    },
    "squeeze-1": {
        "manifest.json": "a219cd2fe5a39a33751e95084e3c4794417ca4a91fee70f84e988d71b8eea51e",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "squeeze-2": {
        "manifest.json": "96ef96ad7ce4828b0c58c69f2c0b359c7af9504eb2027f20e6b0f242b8abf3c5",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "noise_hadamard-1": {
        "manifest.json": "a21188c53cda967bf04c5e7f790b64704cbf50249353eaccc3388951b5a6be96",
        "noise.csv": "f6f2e94b4bdb68f8404d327e1660ee1c85e6879a90f2e74fff829ffd9b37975b",
        "summary.json": "2969eb39ee658127be69cb25a35bd5edd0e97015cdf2d1e87e102211e22072b3"
    },
    "noise_hadamard-2": {
        "manifest.json": "04b48bab5eabcf165a50708bcaf7e63196ace97178aac83ea0118ce4ed6db054",
        "noise.csv": "8a0d520acbf8d3e53aeaf7a8e4be3d142863b1f2294883df34cf019ad7aa44f2",
        "summary.json": "53fa4b5fcde069eb03f32dbfba84ffd33dc68d2a5580a22a428bd594e17d9ff9"
    },
    "noise_fluctuation-1": {
        "manifest.json": "56205c8578224f06bcddd87e3fa8a9e05d4e2980f44ec06aabf4675f3c9b709f",
        "noise.csv": "482fd5f9a1dc1e91ce8dc4747af637362df0b444406654e03d09abdac8e11cdc",
        "summary.json": "3b3ef29ffd7103c3d6f3ea7eab6f49285e50115039b635521009ac40f1682f36"
    },
    "noise_fluctuation-2": {
        "manifest.json": "f8c0cd24443fb2ac8ad01344207d51106fec4bc5722dd28d811562d3e729d21e",
        "noise.csv": "73193e463a09cf46d8a64e4dd5fa32bade661c196642ee480d686a39b8aa083e",
        "summary.json": "e20cc54c719c327e2f936879986ef92a14f757c6707cd4ea90baa3e19df7af7f"
    },
    "kernels_memory-1": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "8d2b5db4a8e9568de65b42389a87d633a815bbead0b2ad4879a6a17814d85d91"
    },
    "kernels_memory-2": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "8e03c970e0fa5fc174f3444e94e96a59c9ec2f599bfd478de052cb4b25363805"
    },
    "verify-1": {
        "manifest.json": "38305a4566745c184c24dec9a8b0af9020e409c77b15591c3b653a5b50ca4e0e",
        "verify.json": "9e853cf9119ac3300d951ddea79630c28925bd9ccd320a3aad9e6b7fea208a93"
    },
    "verify-2": {
        "manifest.json": "47b8d5ea66cfca3436d1e48cce34851769959bf5d3e99cc231f560dc88afffbc",
        "verify.json": "2906b2c37e3ffc700e395f4588b34fb65bfa3bf3ad25b71aa6648c058f41861a"
    },
    "langevin_long-1": {
        "ensemble.csv": "8d5b9c9bc79e4b6f9a699a306ded5e4c7d0770cd9b1eac8a761fc0087f77d224",
        "manifest.json": "0d2d68ae95684732852c395275d45d69fc598f783b392b81b5da8add0c780b6e",
        "summary.json": "6be7f93a5c2113edd77b38af8f7d024f1e321fd91d1aa573a16e94b1901a2383",
        "trajectory0.csv": "8d9e858b7f3105efedea72a26fac8dd323876de3a97a82f5aaebff4fb44f1c57"
    },
    "langevin_long-2": {
        "ensemble.csv": "2e983872598afbb1f42de3f69b85ea66192cb013dc17196c42ebe4695853c43c",
        "manifest.json": "f6be471bf594f1458f2696c63e6c6b02e9398463fb1a3dff6eaed9e7b8f79b57",
        "summary.json": "1023d6092198adacf1353efc1c90be9749b84c7f0c938b954df770dcb41e76bd",
        "trajectory0.csv": "34948897226672091bf201d503a220a137fd20f0cac9e4c2a574d4dfea05f142"
    },
    "ssb_wide-1": {
        "finals.csv": "23982d96cdb4c85c87ac692a726683f88b7931ae050adb813e6bc5d7b6178106",
        "manifest.json": "700fb5e5053848ecb295e2d1429c34123ace97ae445856afafb40d0e1f951e55",
        "mean_trajectory.csv": "40b986136acff465136d8aa0c49c5d2f61906648d8090844dff8e393d3d387aa",
        "report.json": "3d5004044cdfcb7977c902747c764696493dab46ee422b1f29dd10df7d420e83"
    },
    "ssb_wide-2": {
        "finals.csv": "c60c6b12ccf6f76a76cccea6825103599fc9bd3aa1911ecc092627384e9e2d7c",
        "manifest.json": "43ee437439bd1268e985fc80a187fade9bdd0fef891b03808f17d97b3dfa1f79",
        "mean_trajectory.csv": "7544ca29b66aebfa26564b71728644a84e48e99ed4c02a523dc55e5a38e42f32",
        "report.json": "8b97c0ded231b371ad72c7c33e80b0ead11a04744206a179cccd44f6558c6e4c"
    },
    "bec_wide-1": {
        "finals.csv": "aa7cd2f8524b0d0de418abd80c8cbb6d6bcbce498b70cfd1c95cac2848db0daa",
        "manifest.json": "30dda324822e5bd839dd1ae3961f28d9883d3393bdc8afda144907db91789e74",
        "report.json": "509fe700b582184b4efc3e2df0abc0d0abe425f747d90b619cfffd4960f3b468"
    },
    "bec_wide-2": {
        "finals.csv": "9a57cdbb54453c5efdedcf13b1c4124d4fb540fcef0a088380116ed377e488c9",
        "manifest.json": "0b9efce61a841851a19ea8607bf465461ec694375838de68c7caee3a434d6b4c",
        "report.json": "e28a0e5760bfc99f20075f180708f4a2d269eead469a77c617c8432210a2c168"
    }
}


def run_digests(tmp_path: Path, case: str, seed: int) -> dict[str, str]:
    """{file name: sha256} of every output of one run."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"master_seed": seed, **CONFIGS[case]}))
    sub = case.partition("_")[0]
    out = tmp_path / "out"
    assert main([sub, "--config", str(config), "--out", str(out)]) == 0
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["wall_time_s"]
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("case", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_golden_digests(tmp_path, case, seed):
    assert run_digests(tmp_path, case, seed) == GOLDEN[f"{case}-{seed}"]


if __name__ == "__main__":  # prints the table to paste over GOLDEN
    import tempfile
    table = {}
    for case in CONFIGS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                table[f"{case}-{seed}"] = run_digests(Path(tmp), case, seed)
    print("GOLDEN = " + json.dumps(table, indent=4))
