"""Golden digests: the sha256 of every output file of every subcommand at tiny configs.

Each run is pinned at master seeds 1 and 2; manifest.json is hashed as sorted
JSON without its wall_time_s.  A refactor that keeps the outputs must keep
every digest, so a changed bit fails here, in the test suite, before any
benchmark or rerun comparison sees it.  The grids are long enough to cross
the 128-column blocks of the ensemble pipeline, and langevin_long's tables
(1501 rows of 3 values) cross the 2048-value chunks of the table writer.
langevin_double_well steps the quartic force without a gate, the one force
path of the stepper that no scenario runs.
ssb_wide and bec_wide draw 70 and 140 noise rows, two and three row groups
of the factor normals, so they pin the blocks that groups 1 and 2 take after
group 0's from one generator.  bec_wide splits each 129-row noise block into
two tiles of the factor draw (ssb_wide's fit one), and both latch their
gates in three to six different blocks, with many realizations latching in
the same step as another.  Colored noise and the memory kernel pin the
factor draw (``noise.factor_source``) on its own, and verify's
Hubbard-Stratonovich check (300 rows, five groups) the factor normals
(``noise._factor_normals``) through their projections.

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
    "langevin_double_well": {"n_realizations": 5, "langevin": {
        "potential": "double_well", "t_end": 20.0, "n_points": 600}},
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
GOLDEN_VERSION = "0.10.0"
GOLDEN = {
    "langevin-1": {
        "ensemble.csv": "7b0010fd61903b6e2f08e26025fb49f9dda6d05415e883dcf346f98003445c44",
        "manifest.json": "68aaa887ceeb8bb59de07ec5f71f91aeaa66ec32a2d2e0a942c9ac2e36a06ba5",
        "summary.json": "301e332864dfe0ad96aef01f21af5e4682290f232acd5d8ff807d59cf792050a",
        "trajectory0.csv": "7a47fe4f359e0b380d656898348ff743e37d68328e0fa86dd502d55a26d45b6d"
    },
    "langevin-2": {
        "ensemble.csv": "e3d2646cb44e00255ea10ca346628506c5154f9513c8e710adfce18083462afa",
        "manifest.json": "ace8f55ee4eec5ef08f490a528d7a5be8d5bf18149f82d9e9cad09c8012cc011",
        "summary.json": "5550eb130520372ecca0c094e2f7b1bca581270dda9cd76310b0637fa78a74b3",
        "trajectory0.csv": "b9dce6d36e1a74c58ce5752700b06d5fcd059cd996cb4c8c27b18e8b1ece7349"
    },
    "langevin_double_well-1": {
        "ensemble.csv": "110468a5c0a5cd3e4555ccb3dd245ce8cd73cce97e2edc6adca16f9ef60ee181",
        "manifest.json": "2dd664897d7705518038579c8ab930a894b1d578c7396788fcc720b0294944e3",
        "summary.json": "04765b1ddf608b65e2eed0860e3985779e19352d06408ac9e090b7328c4f6f54",
        "trajectory0.csv": "f688e4e2f5b6a7b7854d4740c414ff95042f35a79dfc92f5d61bcb1f874d24f7"
    },
    "langevin_double_well-2": {
        "ensemble.csv": "da4e8081aaf48e3bccbde2ac27d02cb5dc843175144d65d68424675f3ff28016",
        "manifest.json": "4bc4352585aafadac4d139b97e5449eaa054804a3e5ca6725820a44bd117685e",
        "summary.json": "a3fd1b4fab0fd8ab5004fd51c01646395a50f38e61a699043cca0ad99c1353b7",
        "trajectory0.csv": "fcc440a57b8ca521393e93ef965468a44a67ad65ddf9f4510d3b4624fd885002"
    },
    "ssb-1": {
        "finals.csv": "08bad623469b7377625a224d41cc8958aaa668e575a1b8f7469ecaf009e7ad47",
        "manifest.json": "ade8bd75e27971b946fe6d73957d596da77c0120f6af13eca7be2a796678f3a1",
        "mean_trajectory.csv": "bcb6a7a7882b93c19772e1ed6d4da4a4a660e7c0f2b281b855ca4f18a6ca3f47",
        "report.json": "63c16a0fda34223322a0a33c9b70a0fbebd265daab504446117603a63055771e"
    },
    "ssb-2": {
        "finals.csv": "95c48404ab249204d27e3ff496330bae47d9fe8804de9e3b438e77c08bd19de6",
        "manifest.json": "f9479cf90c01f2bd9402367d61d98fd186da689ec2e714edeb9abd1027ee5bdc",
        "mean_trajectory.csv": "06298719fc856247ea786dfcbbc62f88db375226533d9b3caab5dca6c2194f28",
        "report.json": "ccabfa21cd2a206eafe07d42b922570ab23776f316cf9dfa2c691764bc58462f"
    },
    "bec-1": {
        "finals.csv": "3ad813cde7d3a827adad67f1ff12344f2797d681b34bad0912911250ff7b456c",
        "manifest.json": "7dead34b30803740f3d21efd9ae3c0ccc75baec051ebfb3a7baaf12df9ed6bf0",
        "report.json": "4b576bc4bd1ed3952d830be390afb4f5b02dde6821b822e74036cacf490815f4"
    },
    "bec-2": {
        "finals.csv": "7dfdeed0adf6e49146978bc57b46fa98d521e3b2c47528195b2bff4222cd54c7",
        "manifest.json": "c0be08587cccbba878f9633bcbef465eb0d1ace298852aca12fefb45cc5ad00a",
        "report.json": "ffa53af60f5ee72ef12c9fdef1f3440a5f808d6311537e0a56212a424fda7328"
    },
    "inflation-1": {
        "manifest.json": "2c4ce9e2889d1e86e37a80ca391ca1a95c88e86eed982d2d92ace30b04e878ac",
        "report.json": "b9c98a30d26eb1cdd15c3b61bc7949a59e8ff3df580c15ab147182a716f70c2e",
        "spectrum.csv": "b15d32142e204d0f22afb5b35727a0bd59ccdc0ee4438a165903c3857b6ac264"
    },
    "inflation-2": {
        "manifest.json": "c6097e931050e16c8314e22c56a954e8067ba70a256d023b6c139a7f635ef7dc",
        "report.json": "0129d99299211b2d8593aa57157a61f0d5c6e8f4a0fb4928e0357b833c7cfc8d",
        "spectrum.csv": "0c20a780b23050403226e0605cc4bd7a94cb6c95de7b7123b57d0741f7f51d88"
    },
    "noise-1": {
        "manifest.json": "0df577728cb58011c1d9e1cca00ffd97b7e88cca33dd67c3c23738f7e7b81e8e",
        "noise.csv": "3cdb59a23fcd0f2401c8c5744ab2b61e5d98bc3b7a0e2c78d649abe5396c359b",
        "summary.json": "23849a174fb30d5e83f1bca5cfbab561d9c6e08d7d88ae9f27f93b2069081ff2"
    },
    "noise-2": {
        "manifest.json": "0520cc0368f6f182ecf7d28de301603e171a46f6c1e0ff1031bd7fcc32d08821",
        "noise.csv": "712007aede99f0e86e9180129db4813c8943a0e2eae38dfdd1e668f2616e0ef6",
        "summary.json": "2d95adb9a022dbd2fcc1993106bb77e64bb314ac8aa08a65131aa0739ee04ce3"
    },
    "squeeze-1": {
        "manifest.json": "123a552d18d01ed4220346deff79fada92ced0e603f6c64994364c547bd8343d",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "squeeze-2": {
        "manifest.json": "5195927d775b63123bf6f0b3fab584c3883c16ec4a1d422bfee06cd8b57d5b0c",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "noise_hadamard-1": {
        "manifest.json": "090812a8065d7f8f53d311c5ff2e6f31f7164b52fa1164726b76e2bc3e81cc9a",
        "noise.csv": "1fbeffc6762f5579f0517b3d08ba769f37a69f1dd71f17691f91d79a555c6be0",
        "summary.json": "7ae906ff3da512ceb4fc9d8713b66c86aac62a6c964fec7eecfc3c711c19dcf9"
    },
    "noise_hadamard-2": {
        "manifest.json": "c10dd91af8f6c63fc207e9e9469e6abfdf7bac04b89e5d8c80abaa0c19efe247",
        "noise.csv": "8c74924440133e1b001ba5904120f2010d451db22adcf1156b59bcb05024f55f",
        "summary.json": "483384a27b31c911de9e82a70e91591de4e934c24e277fe0cc89fa63a73009c4"
    },
    "noise_fluctuation-1": {
        "manifest.json": "c1c158669c56b77c1c8c2a1aa1a9fba2ad016c9bcaed1b631fcaf3bfd2c40da5",
        "noise.csv": "9ddfcd3996470f57eaa0820a29158cc66c51d67cad98b0fcafc74d70c2f4ad09",
        "summary.json": "2fc6cf49f394dbd37a0ef015a8b35b744d7bc68445eab8a8966579152f017a43"
    },
    "noise_fluctuation-2": {
        "manifest.json": "39638377a0cfcac3b1060d67d267b3d557c594d05424a1ec5b0481d10dc99e0c",
        "noise.csv": "dcb057b6ad8535bab3bace66b83ddcdbbcf7054ff5a69647b86b0c69523533f1",
        "summary.json": "b917424f04434da5f197fbcf8fd33b862de19d8966be32d8755218b7fa37f4cf"
    },
    "kernels_memory-1": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "ba31e788fb429736ab4da16b29fbabe85a5336ad566c9bc6352b3e5f30d18925"
    },
    "kernels_memory-2": {
        "kernel.txt": "26e5b1b1d329e1fbfd7eff0b29fee1241dd5ef4c77917692fa8940069fe25a04",
        "manifest.json": "3503017b9573a5dd789e4cead9efa4e1a2c48096a72db1a3b6eacfb118744c49"
    },
    "verify-1": {
        "manifest.json": "4750dfbd0f0c477f6055eb9ad0a55ae8db648054038d0e97c890dad8ea8a5f2a",
        "verify.json": "8ca5eaf445eff508afae193c94719ba90dbc172dc71d71c247e6a01b3b26ceb8"
    },
    "verify-2": {
        "manifest.json": "cfd37195d1642ec889fc45c1b77228b1889db9699758779e3476cf2630b0c23b",
        "verify.json": "eb96dc9f0abcfe0e7dd09fcfee878bd1eac788380203e7abc7b570439eadce30"
    },
    "langevin_long-1": {
        "ensemble.csv": "172b1bbcd3d4aed7a1874b644fc8f34f3e4bb8a1bc77b1eb103e5b6072c33b4a",
        "manifest.json": "bfdbd4ef510d32c47fbc3bdcd29a2b97b47222f5f914915978fd815f3bfec48f",
        "summary.json": "6be7f93a5c2113edd77b38af8f7d024f1e321fd91d1aa573a16e94b1901a2383",
        "trajectory0.csv": "8d9e858b7f3105efedea72a26fac8dd323876de3a97a82f5aaebff4fb44f1c57"
    },
    "langevin_long-2": {
        "ensemble.csv": "8d5bbf9e5c66a77de218a32eea9df3d1664ce8f29e735eaf15941871fe4be655",
        "manifest.json": "fc26654622332510c95ca9fe11c2d11156ae582de0e4feb2d22c126daa207c9d",
        "summary.json": "1023d6092198adacf1353efc1c90be9749b84c7f0c938b954df770dcb41e76bd",
        "trajectory0.csv": "34948897226672091bf201d503a220a137fd20f0cac9e4c2a574d4dfea05f142"
    },
    "ssb_wide-1": {
        "finals.csv": "6c61c17a7eb889e197d8387a45dbad8a9e2df2e024c4151a70b1047593c18938",
        "manifest.json": "b36e2cfc765edd1a4b2b7d6372679033e1e5f986d625787d6743d992431418a0",
        "mean_trajectory.csv": "36ecd81fd5ff28f4f66e0ac95d6ffbdf80a5ce534d3606edb7393616e5e074dd",
        "report.json": "0754ad97ccc2a5f52ea099c1634e7a560780720c73b99b5d9fa7f722236ba2b2"
    },
    "ssb_wide-2": {
        "finals.csv": "184d13e27381f9b67496c26bcb7b328501affb04ff4ae9c02cdbe1436ae03d6b",
        "manifest.json": "9e99b792780a23bc32fa5795de18e34016e7fbe82ed6b8699b63a4aa09579e4d",
        "mean_trajectory.csv": "02ec364208566911e67a87ed635fed7200aa5f6ce2573a8593e052e2b4fabcf8",
        "report.json": "6b8abf9a706c8007627f1ac1bc232f2bff0fe0c4cd1876acdf22304ed6591f65"
    },
    "bec_wide-1": {
        "finals.csv": "de4abccd14052854b8c6a7c363de845ae033e4ffed7a89a731bdbf86ebd979a3",
        "manifest.json": "d5f37730a31f198e9a4735ff1c997d3068c4dc0da8c78ade04f3e35c8de8071d",
        "report.json": "3b9f968511d5f1745b723bf287eb969f25e41b8ab428d5c90085f20e5d0ccd0d"
    },
    "bec_wide-2": {
        "finals.csv": "e3e4009fe85e1e64c57149e6378d7f82e5eef086fcf2dbeb9ced9d2bb143bb3a",
        "manifest.json": "07556396c57de01d27cef5cb0b53fbad221587eb606870432a36a8ced783344b",
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
