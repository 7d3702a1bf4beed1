"""Golden digests: the sha256 of every output file of six subcommands at tiny configs.

Each run is pinned at master seeds 1 and 2; manifest.json is hashed as sorted
JSON without its wall_time_s.  A refactor that keeps the outputs must keep
every digest, so a changed bit fails here, in the test suite, before any
benchmark or rerun comparison sees it.  The grids are long enough to cross
the 256-column blocks of the ensemble pipeline.

The digests were recorded with numpy 2.4.6 at artifact_version 0.2.0; on
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

# subcommand -> config document without its master_seed
CONFIGS = {
    "langevin": {"n_realizations": 5, "langevin": {"t_end": 20.0, "n_points": 600}},
    "ssb": {"n_realizations": 6, "ssb": {"n_points": 600}},
    "bec": {"n_realizations": 4, "bec": {"n_points": 600}},
    "inflation": {"n_realizations": 4, "inflation": {"n_points": 600}},
    "noise": {"n_realizations": 4, "noise": {"kind": "white", "n_points": 40}},
    "squeeze": {"squeeze": {"n_points": 21}},
}
SEEDS = (1, 2)

# recorded at artifact_version 0.2.0 with numpy 2.4.6
GOLDEN = {
    "langevin-1": {
        "ensemble.csv": "7ca86bc7463794c217c1f6e8c4edb57abf785b3cb04242e685a27ecd78121d8d",
        "manifest.json": "9ce0c0de764d92279b521c54beb83a70ed7848788c9ac228152dbb8894d5abd7",
        "summary.json": "bc5ed3813dfb336caf9a6f549d78c0474c2224e9bc7b8a0f6c4b06b8317636e2",
        "trajectory0.csv": "3245d52fde8adbf15bee2953321c72dec149b6dd5466d07fe083a206dd76d094"
    },
    "langevin-2": {
        "ensemble.csv": "d3eacc3a4bc65e71ec5f003bca02659f87805de6f7b9fd7c7224533e689e0293",
        "manifest.json": "cac368c059cd85d09500b7f6660d25ffa03dd3f17d46da8265aa6f7ccdb495ed",
        "summary.json": "644867dae36c419e71cce9c455255bf25c3ab1e6dd9c3ac410ed35e09ca9346c",
        "trajectory0.csv": "48c0eed81b70ded8c293dcac7d02395fc1d335922a91b1764b88369a7e4802ae"
    },
    "ssb-1": {
        "finals.csv": "4246fc2c46b796a1800abc094fe78fabdb2d4c932d201157fb57e7eb5e2b0b8a",
        "manifest.json": "f6bf1166397617083d576863ee61980d923051a3d62eb3501f074230e202f924",
        "mean_trajectory.csv": "26fd66fa1e7c45a61593c07a31367a4ba7a0c4a7cd3d64e61e8a8008cfa2f85e",
        "report.json": "15ef20e047ba5a7ab67f22e25a2365a2cb7b9a953bcaec4cb328dc4101065d90"
    },
    "ssb-2": {
        "finals.csv": "5762f2b577cb5cb3f33a49925d72425dadefa2235cca2336b0455fdab34d2c33",
        "manifest.json": "9490233fa521d512c1be9178d2914ad3953ab3e18f068f773c32f7bbaf3f4223",
        "mean_trajectory.csv": "ad7e3e9af1642497974f82078fc28d410f27159222868aab58dfcfad7ae3a4d6",
        "report.json": "25e44e34fa388f512695164c6b5cc153082ba902def442e905b48ad3cd9b8028"
    },
    "bec-1": {
        "finals.csv": "4e25dbc9eb7c0be8c7c446e3fb30f71140ff782809d2c23068892866dbe6bdb7",
        "manifest.json": "d21c49a7a0526d6fff46733b37dcee791cf809f0cdaad6606862a30dfb207b17",
        "report.json": "723ebd90c39f23b74f0621b4b47d901226b8ed1a5f546d820a8e18723b00120b"
    },
    "bec-2": {
        "finals.csv": "3653b5948612090eea7ef254fe7b24cdd481223c13550553f55ed8ef9e91ef67",
        "manifest.json": "530040dd33c7c9afd30f1e806e6b335d7ba78af6143b25fe437fb78b1d353410",
        "report.json": "36b733b0279121ccfaa405a726f62e04770872fbb32b9f7397953eaa45169e68"
    },
    "inflation-1": {
        "manifest.json": "349728bb9bf0e87d4612de45e999aeaa9f165492db99b807648c3f8f4e648348",
        "report.json": "4a4a418e0a0ec4ae4944e48f5936165c481e81fe40932f296dc498c51e5ff452",
        "spectrum.csv": "0a194cc0423efc8a2998314f040c9c028f80e21773d77484428e226f1892a1e7"
    },
    "inflation-2": {
        "manifest.json": "6f8c09984b4059f8651f5f62c991840000e127a428acdc3ceb66a9c5a7d2cdd6",
        "report.json": "dffc7ad1c18df7b8115e3861a3b8dc18dbe9b827184b91b20be8de27239525bb",
        "spectrum.csv": "318980b8ae90d50c40d8a28cce09bb61a15607939847a79c9e6e901491462e7a"
    },
    "noise-1": {
        "manifest.json": "8b6fb0ada8bace43bb0197fbb800300a49e340fcdbb6e6049ce64c1a762ceddb",
        "noise.csv": "46488470327401a8d277e835a2e9aa97998982c4ac97ae74440c915ce3881f16",
        "summary.json": "9ef28ac121ea7409b4edb20724d005188d59c5d8b0da924981394372b41b3f6e"
    },
    "noise-2": {
        "manifest.json": "c739c8e3144ab457e524d2373c411b9a709e2fe28cc142aaeb535ad92113d398",
        "noise.csv": "f9395bb4b350e7bae38ee4ba2360843d67d25647407a7d672ffe0269687cebe5",
        "summary.json": "b49de8651cc1f492963819430ba4bac820fdba571f7ab1b2b21218b041c16af4"
    },
    "squeeze-1": {
        "manifest.json": "a6bf54eae8452c3aad30f592aed43cb8c1d4a7075ff156858fa6469ff4e7b212",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    },
    "squeeze-2": {
        "manifest.json": "6bfda9de63e06d7c6f98dc308efa74834f424981abd1b53c1b86c1f5c2ad975c",
        "squeeze.csv": "f19e8fa3417e846d8da76b0253fcf5c3865a4f940f5f8035ce6397c0b453a95b"
    }
}


def run_digests(tmp_path: Path, sub: str, seed: int) -> dict[str, str]:
    """{file name: sha256} of every output of one run."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"master_seed": seed, **CONFIGS[sub]}))
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


@pytest.mark.parametrize("sub", CONFIGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_golden_digests(tmp_path, sub, seed):
    assert run_digests(tmp_path, sub, seed) == GOLDEN[f"{sub}-{seed}"]


if __name__ == "__main__":  # prints the table to paste over GOLDEN
    import tempfile
    table = {}
    for sub in CONFIGS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                table[f"{sub}-{seed}"] = run_digests(Path(tmp), sub, seed)
    print("GOLDEN = " + json.dumps(table, indent=4))
