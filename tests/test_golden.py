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

The digests were recorded with numpy 2.4.6 at the artifact_version
GOLDEN_VERSION; on another numpy the digest test is skipped, since numpy may
draw or round differently.  A deliberate change of the outputs comes with an
artifact_version bump, and the bump re-records the table:
``python tests/test_golden.py`` prints GOLDEN_VERSION and GOLDEN.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ctpsim import __version__
from ctpsim.cli import main

needs_golden_numpy = pytest.mark.skipif(
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

# recorded at artifact_version GOLDEN_VERSION with numpy 2.4.6
GOLDEN_VERSION = "0.6.0"
GOLDEN = {
    "langevin-1": {
        "ensemble.csv": "283f3d1b9d30631037b15218032b0e92a880cf5de00d000057e6200588f386ba",
        "manifest.json": "7d39b65a267568d49eed5b7ac2d3766f69bb53d4e1102ec31b16d902d55d7fe9",
        "summary.json": "301e332864dfe0ad96aef01f21af5e4682290f232acd5d8ff807d59cf792050a",
        "trajectory0.csv": "7a47fe4f359e0b380d656898348ff743e37d68328e0fa86dd502d55a26d45b6d"
    },
    "langevin-2": {
        "ensemble.csv": "2cc001f6199042cc06c2ef0dd889cd0090cf7c837ace809df9ded81acc058f05",
        "manifest.json": "5b06f83a7d3ddde5562aff78ead5da962e607b766de90a474f21dd1bc36c4759",
        "summary.json": "5550eb130520372ecca0c094e2f7b1bca581270dda9cd76310b0637fa78a74b3",
        "trajectory0.csv": "b9dce6d36e1a74c58ce5752700b06d5fcd059cd996cb4c8c27b18e8b1ece7349"
    },
    "ssb-1": {
        "finals.csv": "08bad623469b7377625a224d41cc8958aaa668e575a1b8f7469ecaf009e7ad47",
        "manifest.json": "80905f6a8ec8d41e8668c6b468fa6b224c8a6c09d942420ffe6bbff19b9e8e9c",
        "mean_trajectory.csv": "23be443b9d89b529351d701cda0942a756d1faae21d2be03a571d16cebf19421",
        "report.json": "76af987adeaa455b52944daf8aafed9fca385ca94200f67be9b59b1f8a585c4d"
    },
    "ssb-2": {
        "finals.csv": "95c48404ab249204d27e3ff496330bae47d9fe8804de9e3b438e77c08bd19de6",
        "manifest.json": "8b7ff94c5aa33adcdff14772b6b9426b044e67601d7fe3525208bbe8d8e2a3c4",
        "mean_trajectory.csv": "6af8ad3f1cfa47e7937decddd58212d1a745203542248a1ccb356ee385612474",
        "report.json": "ccabfa21cd2a206eafe07d42b922570ab23776f316cf9dfa2c691764bc58462f"
    },
    "bec-1": {
        "finals.csv": "3ad813cde7d3a827adad67f1ff12344f2797d681b34bad0912911250ff7b456c",
        "manifest.json": "3fd0e94a0a88e480686a63d3d563dd5334c2a3871e3d07e96bfed0039a6d3abb",
        "report.json": "4b576bc4bd1ed3952d830be390afb4f5b02dde6821b822e74036cacf490815f4"
    },
    "bec-2": {
        "finals.csv": "7dfdeed0adf6e49146978bc57b46fa98d521e3b2c47528195b2bff4222cd54c7",
        "manifest.json": "727ff9caf14b3aa7b81a75d795e6ce3e0611fb5580733c1e9449a3f38a3262cf",
        "report.json": "ffa53af60f5ee72ef12c9fdef1f3440a5f808d6311537e0a56212a424fda7328"
    },
    "inflation-1": {
        "manifest.json": "0ed1721f6f41438b162d487c756c3a10d57964f39a8596e9788d3fd8a63b4299",
        "report.json": "b9c98a30d26eb1cdd15c3b61bc7949a59e8ff3df580c15ab147182a716f70c2e",
        "spectrum.csv": "b15d32142e204d0f22afb5b35727a0bd59ccdc0ee4438a165903c3857b6ac264"
    },
    "inflation-2": {
        "manifest.json": "055cf39c74e43364d38050c7dbd9c9a878052853deba6d52374b971bcf3c7f07",
        "report.json": "0129d99299211b2d8593aa57157a61f0d5c6e8f4a0fb4928e0357b833c7cfc8d",
        "spectrum.csv": "0c20a780b23050403226e0605cc4bd7a94cb6c95de7b7123b57d0741f7f51d88"
    },
    "noise-1": {
        "manifest.json": "2520a41528708dad2fadc0326da6d0c73bb4cceee0424306d5bf73021f69ca93",
        "noise.csv": "3cdb59a23fcd0f2401c8c5744ab2b61e5d98bc3b7a0e2c78d649abe5396c359b",
        "summary.json": "23849a174fb30d5e83f1bca5cfbab561d9c6e08d7d88ae9f27f93b2069081ff2"
    },
    "noise-2": {
        "manifest.json": "40f7f38e94e10b47d17737b69de413f500972a02629e3dfab14dea718c3e11c3",
        "noise.csv": "712007aede99f0e86e9180129db4813c8943a0e2eae38dfdd1e668f2616e0ef6",
        "summary.json": "2d95adb9a022dbd2fcc1993106bb77e64bb314ac8aa08a65131aa0739ee04ce3"
    },
    "squeeze-1": {
        "manifest.json": "c9b782f4f749f9815ae547411b6b7aa189cd7a6c105809bb4111f452f446263a",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "squeeze-2": {
        "manifest.json": "24f40e0ef36b726e62481e75d070f343924364c959dfa3a5639548916aa149c1",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "noise_hadamard-1": {
        "manifest.json": "9c9cf71d75ea1fb3bbcf9e27249589ba32163e135b9af1e06ad36297feb8f4fa",
        "noise.csv": "1fbeffc6762f5579f0517b3d08ba769f37a69f1dd71f17691f91d79a555c6be0",
        "summary.json": "7ae906ff3da512ceb4fc9d8713b66c86aac62a6c964fec7eecfc3c711c19dcf9"
    },
    "noise_hadamard-2": {
        "manifest.json": "403e51b45974e4d9fb9f06f652dc26b7b8332758872ff4630ddc7b1bb77e0704",
        "noise.csv": "8c74924440133e1b001ba5904120f2010d451db22adcf1156b59bcb05024f55f",
        "summary.json": "483384a27b31c911de9e82a70e91591de4e934c24e277fe0cc89fa63a73009c4"
    },
    "noise_fluctuation-1": {
        "manifest.json": "62ba0e486e80d8cbd25b59509556c9d78ecd4f41fc91923802af113a8d1f61c1",
        "noise.csv": "9ddfcd3996470f57eaa0820a29158cc66c51d67cad98b0fcafc74d70c2f4ad09",
        "summary.json": "2fc6cf49f394dbd37a0ef015a8b35b744d7bc68445eab8a8966579152f017a43"
    },
    "noise_fluctuation-2": {
        "manifest.json": "f1cdb40aadac482ef0c9714632e4050231887c64c268bd15cb8853c201e2545d",
        "noise.csv": "dcb057b6ad8535bab3bace66b83ddcdbbcf7054ff5a69647b86b0c69523533f1",
        "summary.json": "b917424f04434da5f197fbcf8fd33b862de19d8966be32d8755218b7fa37f4cf"
    },
    "kernels_memory-1": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "4bfcd4731116477f2d728f818ded0684e5aea5801b1663a4352ca7e7672eebe2"
    },
    "kernels_memory-2": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "f677b6f1a61857025e93529f4e63775ab5f0e7939ed329bc3ac9c940bcef5dbc"
    },
    "verify-1": {
        "manifest.json": "32d055618534d3720978de973e68c5104abead172022e7b9e8c038e03225568f",
        "verify.json": "9e853cf9119ac3300d951ddea79630c28925bd9ccd320a3aad9e6b7fea208a93"
    },
    "verify-2": {
        "manifest.json": "93a6e4bb79b58f87c18d6466ecc392bca2e710d123c195745901beb394b23b23",
        "verify.json": "2906b2c37e3ffc700e395f4588b34fb65bfa3bf3ad25b71aa6648c058f41861a"
    },
    "langevin_long-1": {
        "ensemble.csv": "8d5b9c9bc79e4b6f9a699a306ded5e4c7d0770cd9b1eac8a761fc0087f77d224",
        "manifest.json": "0fb7327401cd98eb3267216d793bc281ba308258e1a2cc257920b4058c79d49c",
        "summary.json": "6be7f93a5c2113edd77b38af8f7d024f1e321fd91d1aa573a16e94b1901a2383",
        "trajectory0.csv": "8d9e858b7f3105efedea72a26fac8dd323876de3a97a82f5aaebff4fb44f1c57"
    },
    "langevin_long-2": {
        "ensemble.csv": "2e983872598afbb1f42de3f69b85ea66192cb013dc17196c42ebe4695853c43c",
        "manifest.json": "1c553e82509d9facd50008fb4510ff2dcfc10f7f3d17374f746de5866521368a",
        "summary.json": "1023d6092198adacf1353efc1c90be9749b84c7f0c938b954df770dcb41e76bd",
        "trajectory0.csv": "34948897226672091bf201d503a220a137fd20f0cac9e4c2a574d4dfea05f142"
    },
    "ssb_wide-1": {
        "finals.csv": "23982d96cdb4c85c87ac692a726683f88b7931ae050adb813e6bc5d7b6178106",
        "manifest.json": "6b594f25d70d5921382f99fdbd036239073c740e25a5b33341e1a9ee10a0f3b3",
        "mean_trajectory.csv": "40b986136acff465136d8aa0c49c5d2f61906648d8090844dff8e393d3d387aa",
        "report.json": "3d5004044cdfcb7977c902747c764696493dab46ee422b1f29dd10df7d420e83"
    },
    "ssb_wide-2": {
        "finals.csv": "c60c6b12ccf6f76a76cccea6825103599fc9bd3aa1911ecc092627384e9e2d7c",
        "manifest.json": "b68c31d733fa961d0851a98619464296e2e2bff98dee5804a2ded16963343f65",
        "mean_trajectory.csv": "7544ca29b66aebfa26564b71728644a84e48e99ed4c02a523dc55e5a38e42f32",
        "report.json": "8b97c0ded231b371ad72c7c33e80b0ead11a04744206a179cccd44f6558c6e4c"
    },
    "bec_wide-1": {
        "finals.csv": "aa7cd2f8524b0d0de418abd80c8cbb6d6bcbce498b70cfd1c95cac2848db0daa",
        "manifest.json": "7cd55396e0d84051886e6e55d2cf6c6dba0590ae98a76d71c98c5010d078e309",
        "report.json": "509fe700b582184b4efc3e2df0abc0d0abe425f747d90b619cfffd4960f3b468"
    },
    "bec_wide-2": {
        "finals.csv": "9a57cdbb54453c5efdedcf13b1c4124d4fb540fcef0a088380116ed377e488c9",
        "manifest.json": "e4f4400503096db576a4354bb70e067db070d584ae38f1e880bfd6fb07070c0a",
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


def test_golden_table_is_recorded_at_this_version():
    assert GOLDEN_VERSION == __version__, (
        f"the golden digests were recorded at artifact_version {GOLDEN_VERSION}, "
        f"ctpsim is {__version__}: re-record them with python tests/test_golden.py")


@needs_golden_numpy
@pytest.mark.parametrize("case", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_golden_digests(tmp_path, case, seed):
    assert run_digests(tmp_path, case, seed) == GOLDEN[f"{case}-{seed}"]


if __name__ == "__main__":  # prints the lines to paste over GOLDEN_VERSION and GOLDEN
    import contextlib
    import io
    import tempfile
    table = {}
    for case in CONFIGS:
        for seed in SEEDS:
            # verify prints its checks; only the table goes to stdout
            with tempfile.TemporaryDirectory() as tmp, \
                    contextlib.redirect_stdout(io.StringIO()):
                table[f"{case}-{seed}"] = run_digests(Path(tmp), case, seed)
    print(f"GOLDEN_VERSION = {json.dumps(__version__)}")
    print("GOLDEN = " + json.dumps(table, indent=4))
