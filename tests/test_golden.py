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
GOLDEN_VERSION = "0.7.0"
GOLDEN = {
    "langevin-1": {
        "ensemble.csv": "7b0010fd61903b6e2f08e26025fb49f9dda6d05415e883dcf346f98003445c44",
        "manifest.json": "8a23ebc61f78b3bc21452cd0f8b03f1b742c79e08823f424fcaea9fe50cdc2dd",
        "summary.json": "301e332864dfe0ad96aef01f21af5e4682290f232acd5d8ff807d59cf792050a",
        "trajectory0.csv": "7a47fe4f359e0b380d656898348ff743e37d68328e0fa86dd502d55a26d45b6d"
    },
    "langevin-2": {
        "ensemble.csv": "e3d2646cb44e00255ea10ca346628506c5154f9513c8e710adfce18083462afa",
        "manifest.json": "db7770d37347d869d1478c3954898c54fa7a9e9e3b8114b1a32f2fee7841dfd8",
        "summary.json": "5550eb130520372ecca0c094e2f7b1bca581270dda9cd76310b0637fa78a74b3",
        "trajectory0.csv": "b9dce6d36e1a74c58ce5752700b06d5fcd059cd996cb4c8c27b18e8b1ece7349"
    },
    "ssb-1": {
        "finals.csv": "08bad623469b7377625a224d41cc8958aaa668e575a1b8f7469ecaf009e7ad47",
        "manifest.json": "72a20c36bf13412de95cae2845fd8a7307b375280838fb30343933f45287600d",
        "mean_trajectory.csv": "bcb6a7a7882b93c19772e1ed6d4da4a4a660e7c0f2b281b855ca4f18a6ca3f47",
        "report.json": "63c16a0fda34223322a0a33c9b70a0fbebd265daab504446117603a63055771e"
    },
    "ssb-2": {
        "finals.csv": "95c48404ab249204d27e3ff496330bae47d9fe8804de9e3b438e77c08bd19de6",
        "manifest.json": "949c32de23177f94ba8200c1a4022c985aba65ed0f272e63440c0a4849cb0850",
        "mean_trajectory.csv": "06298719fc856247ea786dfcbbc62f88db375226533d9b3caab5dca6c2194f28",
        "report.json": "ccabfa21cd2a206eafe07d42b922570ab23776f316cf9dfa2c691764bc58462f"
    },
    "bec-1": {
        "finals.csv": "3ad813cde7d3a827adad67f1ff12344f2797d681b34bad0912911250ff7b456c",
        "manifest.json": "05167142085e8036a16a0b059f6cb9e055b05de0292f9145081d077c1dceb7fe",
        "report.json": "4b576bc4bd1ed3952d830be390afb4f5b02dde6821b822e74036cacf490815f4"
    },
    "bec-2": {
        "finals.csv": "7dfdeed0adf6e49146978bc57b46fa98d521e3b2c47528195b2bff4222cd54c7",
        "manifest.json": "64e7a2c532bcaa7182077d9b7260819ed3ef24700a2176a922cf85a2a6229f45",
        "report.json": "ffa53af60f5ee72ef12c9fdef1f3440a5f808d6311537e0a56212a424fda7328"
    },
    "inflation-1": {
        "manifest.json": "c4257237686ce1a06da5aac831f455996d669edee6725808ada141a2ac517c14",
        "report.json": "b9c98a30d26eb1cdd15c3b61bc7949a59e8ff3df580c15ab147182a716f70c2e",
        "spectrum.csv": "b15d32142e204d0f22afb5b35727a0bd59ccdc0ee4438a165903c3857b6ac264"
    },
    "inflation-2": {
        "manifest.json": "f4f6dbde442a3f09df35691b537ccaa025b9b8ed7d174d4f2a9a24b028fe3637",
        "report.json": "0129d99299211b2d8593aa57157a61f0d5c6e8f4a0fb4928e0357b833c7cfc8d",
        "spectrum.csv": "0c20a780b23050403226e0605cc4bd7a94cb6c95de7b7123b57d0741f7f51d88"
    },
    "noise-1": {
        "manifest.json": "2673c8912af4d87d78e697f66a032291b04e0ef2a7ae003956932841a4f73438",
        "noise.csv": "3cdb59a23fcd0f2401c8c5744ab2b61e5d98bc3b7a0e2c78d649abe5396c359b",
        "summary.json": "23849a174fb30d5e83f1bca5cfbab561d9c6e08d7d88ae9f27f93b2069081ff2"
    },
    "noise-2": {
        "manifest.json": "213a398dc3bb9685bcd12c59c395669bccfb1299a47996309600e910aecf0876",
        "noise.csv": "712007aede99f0e86e9180129db4813c8943a0e2eae38dfdd1e668f2616e0ef6",
        "summary.json": "2d95adb9a022dbd2fcc1993106bb77e64bb314ac8aa08a65131aa0739ee04ce3"
    },
    "squeeze-1": {
        "manifest.json": "0013e7d93c8f1143b9b537d3c3bbb98dce13a4cc8b6d28120cfc56a734007d8e",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "squeeze-2": {
        "manifest.json": "63bbfcb1dbf86531467e13adba74dd5193bb013572d91c0f36792f4801aaa3dd",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "noise_hadamard-1": {
        "manifest.json": "8f6e50658a99190b05b51792ff441e02a3b14dd9b735030c92cbc2a65496d441",
        "noise.csv": "1fbeffc6762f5579f0517b3d08ba769f37a69f1dd71f17691f91d79a555c6be0",
        "summary.json": "7ae906ff3da512ceb4fc9d8713b66c86aac62a6c964fec7eecfc3c711c19dcf9"
    },
    "noise_hadamard-2": {
        "manifest.json": "9576c7a39bcd21446eb3afa289515814c7d05fdf679b84b2f24a535d9bc1cf25",
        "noise.csv": "8c74924440133e1b001ba5904120f2010d451db22adcf1156b59bcb05024f55f",
        "summary.json": "483384a27b31c911de9e82a70e91591de4e934c24e277fe0cc89fa63a73009c4"
    },
    "noise_fluctuation-1": {
        "manifest.json": "e981b1ed918586db50658f66b6e9311e9d68fd40efaf1f20ebc26bbd7b86bc49",
        "noise.csv": "9ddfcd3996470f57eaa0820a29158cc66c51d67cad98b0fcafc74d70c2f4ad09",
        "summary.json": "2fc6cf49f394dbd37a0ef015a8b35b744d7bc68445eab8a8966579152f017a43"
    },
    "noise_fluctuation-2": {
        "manifest.json": "268f03a769272569ce97289742231c7bf5a9eb4b7a466ede41767113317a41ed",
        "noise.csv": "dcb057b6ad8535bab3bace66b83ddcdbbcf7054ff5a69647b86b0c69523533f1",
        "summary.json": "b917424f04434da5f197fbcf8fd33b862de19d8966be32d8755218b7fa37f4cf"
    },
    "kernels_memory-1": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "e36de7ee227be94ab2fd6de78ff6016cb409d5ca534873aeeb962c5b522a644b"
    },
    "kernels_memory-2": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "6a44da3f0488bb2756d90ded80565553da587e45fe24b8e7069469632582c94a"
    },
    "verify-1": {
        "manifest.json": "f1bbfdc60e8e96020d734dd3144fac82bd15b99b3c1523ba9340a48e243e783b",
        "verify.json": "9e853cf9119ac3300d951ddea79630c28925bd9ccd320a3aad9e6b7fea208a93"
    },
    "verify-2": {
        "manifest.json": "1c6404852ebbd49da0d9b1e94bd73e129ae4538670629182a1937771b10ee320",
        "verify.json": "2906b2c37e3ffc700e395f4588b34fb65bfa3bf3ad25b71aa6648c058f41861a"
    },
    "langevin_long-1": {
        "ensemble.csv": "172b1bbcd3d4aed7a1874b644fc8f34f3e4bb8a1bc77b1eb103e5b6072c33b4a",
        "manifest.json": "9a2b675c6ac7952fdf24030f8b756af5f1e44ee605160b205d2b8aca291977ab",
        "summary.json": "6be7f93a5c2113edd77b38af8f7d024f1e321fd91d1aa573a16e94b1901a2383",
        "trajectory0.csv": "8d9e858b7f3105efedea72a26fac8dd323876de3a97a82f5aaebff4fb44f1c57"
    },
    "langevin_long-2": {
        "ensemble.csv": "8d5bbf9e5c66a77de218a32eea9df3d1664ce8f29e735eaf15941871fe4be655",
        "manifest.json": "871d1740237faf38818f300aa7feca99848a1f786a2c9b6cb67e3232d811b3d7",
        "summary.json": "1023d6092198adacf1353efc1c90be9749b84c7f0c938b954df770dcb41e76bd",
        "trajectory0.csv": "34948897226672091bf201d503a220a137fd20f0cac9e4c2a574d4dfea05f142"
    },
    "ssb_wide-1": {
        "finals.csv": "23982d96cdb4c85c87ac692a726683f88b7931ae050adb813e6bc5d7b6178106",
        "manifest.json": "6a99a96d1fe21e5ea756aa9aa3edfa991b0601ea2ddf950adf4c41d8bfedbaa9",
        "mean_trajectory.csv": "888905cbaa8417edc3c7ad65beba8dc049775c76b58e438e8a3411639995d10f",
        "report.json": "3d5004044cdfcb7977c902747c764696493dab46ee422b1f29dd10df7d420e83"
    },
    "ssb_wide-2": {
        "finals.csv": "c60c6b12ccf6f76a76cccea6825103599fc9bd3aa1911ecc092627384e9e2d7c",
        "manifest.json": "b4c170131a8eb2cba186ba1bce6e1867d13bb2fa22338d819697947392a538dd",
        "mean_trajectory.csv": "0c7e397555f6d2293cc428f899797c3e2f12b303a8d7d940dc277ef7c525678d",
        "report.json": "378fad12b8f4da871a0140c42e192d430cd38243b64fcc91040c4a62982103c5"
    },
    "bec_wide-1": {
        "finals.csv": "aa7cd2f8524b0d0de418abd80c8cbb6d6bcbce498b70cfd1c95cac2848db0daa",
        "manifest.json": "9c35be9637e06ab935594912640b747ed86a0a2cf730465abca3b8cbcf3422e1",
        "report.json": "509fe700b582184b4efc3e2df0abc0d0abe425f747d90b619cfffd4960f3b468"
    },
    "bec_wide-2": {
        "finals.csv": "9a57cdbb54453c5efdedcf13b1c4124d4fb540fcef0a088380116ed377e488c9",
        "manifest.json": "1c6516da2cb82f3f0b676fbd61bd62b6a96839877682c6039635c12217af1009",
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
