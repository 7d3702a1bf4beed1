"""Golden digests: the sha256 of every output file of every subcommand at tiny configs.

Each run is pinned at master seeds 1 and 2; manifest.json is hashed as sorted
JSON without its wall_time_s.  A refactor that keeps the outputs must keep
every digest, so a changed bit fails here, in the test suite, before any
benchmark or rerun comparison sees it.  The grids are long enough to cross
the 128-column blocks of the ensemble pipeline, and langevin_long's tables
(1501 rows of 3 values) cross the 2048-value chunks of the table writer.
ssb_wide and bec_wide draw 70 and 140 noise rows, two and three row groups
of the factor normals, so they pin the blocks that groups 1 and 2 take after
group 0's from one generator.  bec_wide splits each 129-row noise block into
two tiles of the factor draw (ssb_wide's fit one), and both latch their
gates in three to six different blocks, with many realizations latching in
the same step as another.  Colored noise and the memory kernel pin the
factor draw (``noise.factor_source``) on its own, and verify's
Hubbard-Stratonovich check (300 rows, five groups) the factor normals
(``noise._standard_normals``) through their projections.

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
GOLDEN_VERSION = "0.9.0"
GOLDEN = {
    "langevin-1": {
        "ensemble.csv": "7b0010fd61903b6e2f08e26025fb49f9dda6d05415e883dcf346f98003445c44",
        "manifest.json": "61e149e3503e1de62a8e19296d591cba36857ecc48e975e3c552d797f9f3ac6d",
        "summary.json": "301e332864dfe0ad96aef01f21af5e4682290f232acd5d8ff807d59cf792050a",
        "trajectory0.csv": "7a47fe4f359e0b380d656898348ff743e37d68328e0fa86dd502d55a26d45b6d"
    },
    "langevin-2": {
        "ensemble.csv": "e3d2646cb44e00255ea10ca346628506c5154f9513c8e710adfce18083462afa",
        "manifest.json": "97967810f4ade2b4038d5824b316ed8a3c880d9b385964a28614d674da7ed75a",
        "summary.json": "5550eb130520372ecca0c094e2f7b1bca581270dda9cd76310b0637fa78a74b3",
        "trajectory0.csv": "b9dce6d36e1a74c58ce5752700b06d5fcd059cd996cb4c8c27b18e8b1ece7349"
    },
    "ssb-1": {
        "finals.csv": "08bad623469b7377625a224d41cc8958aaa668e575a1b8f7469ecaf009e7ad47",
        "manifest.json": "4a600a7ce6ef4bb85aa2b551cc0890cc43159da63d2f6071a773c569e46e47b2",
        "mean_trajectory.csv": "bcb6a7a7882b93c19772e1ed6d4da4a4a660e7c0f2b281b855ca4f18a6ca3f47",
        "report.json": "63c16a0fda34223322a0a33c9b70a0fbebd265daab504446117603a63055771e"
    },
    "ssb-2": {
        "finals.csv": "95c48404ab249204d27e3ff496330bae47d9fe8804de9e3b438e77c08bd19de6",
        "manifest.json": "d1dea0148bbc9976ccae6c77ae23bf15860d26f625a9834c260b2999cfb33717",
        "mean_trajectory.csv": "06298719fc856247ea786dfcbbc62f88db375226533d9b3caab5dca6c2194f28",
        "report.json": "ccabfa21cd2a206eafe07d42b922570ab23776f316cf9dfa2c691764bc58462f"
    },
    "bec-1": {
        "finals.csv": "3ad813cde7d3a827adad67f1ff12344f2797d681b34bad0912911250ff7b456c",
        "manifest.json": "d53b511d4eba5eae230a1ca3def03383143c9440c84b0853d37cc27c12d01bc5",
        "report.json": "4b576bc4bd1ed3952d830be390afb4f5b02dde6821b822e74036cacf490815f4"
    },
    "bec-2": {
        "finals.csv": "7dfdeed0adf6e49146978bc57b46fa98d521e3b2c47528195b2bff4222cd54c7",
        "manifest.json": "3b0dcef60e2980dc28b6f7d6c6c644d2e0e0d526d2cb4e2d56e6abfc1d80c348",
        "report.json": "ffa53af60f5ee72ef12c9fdef1f3440a5f808d6311537e0a56212a424fda7328"
    },
    "inflation-1": {
        "manifest.json": "bd24fd8fbbfef70da6118a3113bb79cc68fb955946a988f5308753a96a405bbf",
        "report.json": "b9c98a30d26eb1cdd15c3b61bc7949a59e8ff3df580c15ab147182a716f70c2e",
        "spectrum.csv": "b15d32142e204d0f22afb5b35727a0bd59ccdc0ee4438a165903c3857b6ac264"
    },
    "inflation-2": {
        "manifest.json": "6fea7a0ffc55e5139f4220e00d1fe24ac9b363719f896eba1435fff589199e23",
        "report.json": "0129d99299211b2d8593aa57157a61f0d5c6e8f4a0fb4928e0357b833c7cfc8d",
        "spectrum.csv": "0c20a780b23050403226e0605cc4bd7a94cb6c95de7b7123b57d0741f7f51d88"
    },
    "noise-1": {
        "manifest.json": "c461ed42665c62395599ccf2293d2ce987ac2b9124735ed24e670882a20870ef",
        "noise.csv": "3cdb59a23fcd0f2401c8c5744ab2b61e5d98bc3b7a0e2c78d649abe5396c359b",
        "summary.json": "23849a174fb30d5e83f1bca5cfbab561d9c6e08d7d88ae9f27f93b2069081ff2"
    },
    "noise-2": {
        "manifest.json": "d397b83c43c7974908dfa7857d56d0ded14dfcb9da30ead8101272da89f70784",
        "noise.csv": "712007aede99f0e86e9180129db4813c8943a0e2eae38dfdd1e668f2616e0ef6",
        "summary.json": "2d95adb9a022dbd2fcc1993106bb77e64bb314ac8aa08a65131aa0739ee04ce3"
    },
    "squeeze-1": {
        "manifest.json": "a2f51ca0717fb40402cfba7baea7e579ab0b68e8d2b1c141cd9ee76e5f04b40c",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "squeeze-2": {
        "manifest.json": "d857c14fd3d41d097dc4e4f07e6bb6ae1379ed548b63796d0f889ed53193b6f5",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "noise_hadamard-1": {
        "manifest.json": "2517f383b81e08003482fc9b6f7ac1cee3066a29f4411800f23d136ebbb0f082",
        "noise.csv": "1fbeffc6762f5579f0517b3d08ba769f37a69f1dd71f17691f91d79a555c6be0",
        "summary.json": "7ae906ff3da512ceb4fc9d8713b66c86aac62a6c964fec7eecfc3c711c19dcf9"
    },
    "noise_hadamard-2": {
        "manifest.json": "9b6de6b0faff52620203356a32c3c18ab3641d9dcfeacfd5cfa55aeae9c89d8b",
        "noise.csv": "8c74924440133e1b001ba5904120f2010d451db22adcf1156b59bcb05024f55f",
        "summary.json": "483384a27b31c911de9e82a70e91591de4e934c24e277fe0cc89fa63a73009c4"
    },
    "noise_fluctuation-1": {
        "manifest.json": "5d94ee6e2acb817be98c1735155437815965d671653004f4c8e4258df0ea577f",
        "noise.csv": "9ddfcd3996470f57eaa0820a29158cc66c51d67cad98b0fcafc74d70c2f4ad09",
        "summary.json": "2fc6cf49f394dbd37a0ef015a8b35b744d7bc68445eab8a8966579152f017a43"
    },
    "noise_fluctuation-2": {
        "manifest.json": "09da52abff6d2ebb995b8a3c0bc8b827a3f65cd7f97a208a58158e4e69e0928f",
        "noise.csv": "dcb057b6ad8535bab3bace66b83ddcdbbcf7054ff5a69647b86b0c69523533f1",
        "summary.json": "b917424f04434da5f197fbcf8fd33b862de19d8966be32d8755218b7fa37f4cf"
    },
    "kernels_memory-1": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "b5be4ea7515d4fc4465354504b8ea4aaa63852c521dd46bc6f0bbfccbe73ae4b"
    },
    "kernels_memory-2": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "3d211b1e7c362d085125ea234290185459d7f6c2c32030d7c5be5e962a207b86"
    },
    "verify-1": {
        "manifest.json": "044e6e1a366d03e9e9f59d3082c394bb8a0768a2eda7c27f8e7a7bfa056971dc",
        "verify.json": "8ca5eaf445eff508afae193c94719ba90dbc172dc71d71c247e6a01b3b26ceb8"
    },
    "verify-2": {
        "manifest.json": "89c728e64fde6d8794360b652aeb718837f96d72ef2db85cb3bed878a589bb64",
        "verify.json": "eb96dc9f0abcfe0e7dd09fcfee878bd1eac788380203e7abc7b570439eadce30"
    },
    "langevin_long-1": {
        "ensemble.csv": "172b1bbcd3d4aed7a1874b644fc8f34f3e4bb8a1bc77b1eb103e5b6072c33b4a",
        "manifest.json": "e87362f8332f1ed5d19f39864761cef7f1699824cc7e9403bec176efac606dc8",
        "summary.json": "6be7f93a5c2113edd77b38af8f7d024f1e321fd91d1aa573a16e94b1901a2383",
        "trajectory0.csv": "8d9e858b7f3105efedea72a26fac8dd323876de3a97a82f5aaebff4fb44f1c57"
    },
    "langevin_long-2": {
        "ensemble.csv": "8d5bbf9e5c66a77de218a32eea9df3d1664ce8f29e735eaf15941871fe4be655",
        "manifest.json": "17293cdc4e4f9edcd63c20d43eb8223ab7633d546e7cf47f03a72d1e71db779f",
        "summary.json": "1023d6092198adacf1353efc1c90be9749b84c7f0c938b954df770dcb41e76bd",
        "trajectory0.csv": "34948897226672091bf201d503a220a137fd20f0cac9e4c2a574d4dfea05f142"
    },
    "ssb_wide-1": {
        "finals.csv": "6c61c17a7eb889e197d8387a45dbad8a9e2df2e024c4151a70b1047593c18938",
        "manifest.json": "bbfd05ff0845e91370f2f27070d63ffd0f88d3c79188954caf8142e5bdab2694",
        "mean_trajectory.csv": "36ecd81fd5ff28f4f66e0ac95d6ffbdf80a5ce534d3606edb7393616e5e074dd",
        "report.json": "0754ad97ccc2a5f52ea099c1634e7a560780720c73b99b5d9fa7f722236ba2b2"
    },
    "ssb_wide-2": {
        "finals.csv": "184d13e27381f9b67496c26bcb7b328501affb04ff4ae9c02cdbe1436ae03d6b",
        "manifest.json": "e9cc873617de0a33829133925fd1734a897b4076d31e7cd727c2d58cfd245b7a",
        "mean_trajectory.csv": "02ec364208566911e67a87ed635fed7200aa5f6ce2573a8593e052e2b4fabcf8",
        "report.json": "6b8abf9a706c8007627f1ac1bc232f2bff0fe0c4cd1876acdf22304ed6591f65"
    },
    "bec_wide-1": {
        "finals.csv": "de4abccd14052854b8c6a7c363de845ae033e4ffed7a89a731bdbf86ebd979a3",
        "manifest.json": "4eb4680d0c6dfd373cc8e8816b4d401a9fb620974adee6b63578c975ab6da3aa",
        "report.json": "3b9f968511d5f1745b723bf287eb969f25e41b8ab428d5c90085f20e5d0ccd0d"
    },
    "bec_wide-2": {
        "finals.csv": "e3e4009fe85e1e64c57149e6378d7f82e5eef086fcf2dbeb9ced9d2bb143bb3a",
        "manifest.json": "be5d696d5c336e23df521e773e08822508dc93f0da3951673ebc6ce6b97d49db",
        "report.json": "1a1304f0a43c6745c299af387b44f90c4d90730f787c13a7c6efcba3eea4ab95"
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
