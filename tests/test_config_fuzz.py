"""Config fuzzer: every subcommand, every schema key, tiny sizes, extreme valid values.

Each drawn config passes the schema in ``ctpsim.cli``, so the run must end in
one of the documented exit codes (0 ok, 1 config, 2 numerical, 3 verify)
with no traceback and no warning; every exit 1 or 2 names a ``section.key`` or
a top-level key it comes from.  Sizes stay tiny, so a call takes
milliseconds; the values are the extremes of the float range.

Run as a script, ``PYTHONPATH=src python tests/test_config_fuzz.py [N [SEED]]``
prints a census of N configs (default 3000), drawn over the same value sets
by a numpy generator seeded with SEED (default 0), so that two trees run the
same configs in the same order: the count of each exit code, the exit-1/2
messages that name no config key, grouped by message with the numbers
masked, and the exit-0 runs whose outputs hold a non-finite value, grouped
by subcommand and files, each with its first config.
"""

import collections
import contextlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctpsim.cli import _SECTION_SCHEMAS, _TOP_SCHEMA, SUBCOMMANDS, main

_MAGNITUDES = (5e-324, 1e-300, 1e-12, 0.3, 1.0, 2.5, 1e12, 1e300, sys.float_info.max)
FLOATS = (0.0, *_MAGNITUDES, *(-v for v in _MAGNITUDES))
WORDS = ("retarded", "hadamard", "fluctuation", "memory", "white", "quadratic",
         "inverted", "double_well")
# every integer key of the schema, kept to sizes that run in milliseconds
INTS = {"n_points": (2, 9), "n_modes": (2, 12), "hs_realizations": (1, 64),
        "n_realizations": (1, 4), "master_seed": (0, 2**64 - 1)}
# size keys whose defaults are large: always drawn
SIZE_KEYS = ("n_points", "hs_realizations", "n_realizations")


def _values(key, spec):
    want, _default, constraint = spec
    if want is bool:
        values = st.booleans()
    elif want is int:
        values = st.integers(*INTS[key])
    elif want is str:
        values = st.sampled_from(WORDS)
    else:
        values = st.sampled_from(FLOATS)
    return values if constraint is None else values.filter(constraint[0])


def _mapping(schema):
    strategies = {key: _values(key, spec) for key, spec in schema.items()}
    return st.fixed_dictionaries(
        {key: s for key, s in strategies.items() if key in SIZE_KEYS},
        optional={key: s for key, s in strategies.items() if key not in SIZE_KEYS})


CONFIGS = st.sampled_from(SUBCOMMANDS).flatmap(
    lambda sub: st.tuples(st.just(sub), _mapping(_TOP_SCHEMA),
                          _mapping(_SECTION_SCHEMAS[sub])))


#: a non-finite float as json.dumps writes it (Infinity, -Infinity, NaN) or repr does (inf, nan)
_NONFINITE = re.compile(r"(?<![\w.])-?(Infinity|NaN|inf|nan)(?![\w.])")


def run_cli(sub: str, top: dict, section: dict) -> tuple[int, str, list[str]]:
    """Exit code, stderr and the output files holding a non-finite value of one in-process run.

    Warnings are recorded, not shown.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**top, sub: section}))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            # an exception escaping main is the traceback a user would see
            rc = main([sub, "--config", str(path), "--out", str(out)])
        nonfinite = sorted(p.name for p in out.glob("*") if _NONFINITE.search(p.read_text()))
    assert not caught, [str(w.message) for w in caught]
    return rc, err.getvalue(), nonfinite


def names_a_key(sub: str, err: str) -> bool:
    """Whether the message names a key of sub's section (sub.key) or a top-level key."""
    return bool(re.search(rf"\b{sub}\.\w", err)
                or any(re.search(rf"\b{key}\b", err) for key in _TOP_SCHEMA))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=CONFIGS)
@example(case=("squeeze", {"n_realizations": 1}, {"omega": 1e300, "n_points": 3}))
@example(case=("inflation", {"n_realizations": 1}, {"decades": 400.0, "n_points": 3}))
@example(case=("inflation", {"n_realizations": 1}, {"k_min": 1e-300, "n_points": 3}))
@example(case=("kernels", {"n_realizations": 1},
               {"t_end": 1e300, "omega": 1e300, "n_points": 3}))
def test_valid_config_ends_in_a_documented_exit_code(case):
    sub, top, section = case
    rc, err, _ = run_cli(sub, top, section)
    assert rc in (0, 1, 2, 3), err
    assert "Traceback" not in err
    assert "Warning" not in err
    if rc in (1, 2):
        assert names_a_key(sub, err), err


_NUMBER = re.compile(r"(?<![\w-])[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|\b(inf|nan)\b")


def _draw(rng, key, spec):
    """One value for key from the value sets of :func:`_values`, drawn by rng."""
    want, _default, constraint = spec
    pool = (False, True) if want is bool else WORDS if want is str else FLOATS
    while True:
        if want is int:
            value = int(rng.integers(*INTS[key], endpoint=True, dtype=np.uint64))
        else:
            value = pool[rng.integers(len(pool))]
        if constraint is None or constraint[0](value):
            return value


def _draw_mapping(rng, schema):
    """Values for the SIZE_KEYS of schema and for each other key with probability 1/2."""
    return {key: _draw(rng, key, spec) for key, spec in schema.items()
            if key in SIZE_KEYS or rng.random() < 0.5}


def draw_configs(n: int, seed: int = 0):
    """n configs (subcommand, top level, section) over the value sets of CONFIGS.

    One seeded numpy generator draws them in turn, so the k-th config is the
    same on any tree with the same schema.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        sub = SUBCOMMANDS[rng.integers(len(SUBCOMMANDS))]
        yield sub, _draw_mapping(rng, _TOP_SCHEMA), _draw_mapping(rng, _SECTION_SCHEMAS[sub])


def census(n: int = 3000, seed: int = 0) -> None:
    """Print the exit codes of n configs of :func:`draw_configs`, the keyless exit-1/2
    messages and the exit-0 runs that wrote a non-finite value."""
    codes, keyless, nonfinite = collections.Counter(), collections.Counter(), {}
    for sub, top, section in draw_configs(n, seed):
        rc, err, files = run_cli(sub, top, section)
        codes[rc] += 1
        if rc in (1, 2) and not names_a_key(sub, err):
            keyless[sub, _NUMBER.sub("#", err.strip())] += 1
        if rc == 0 and files:
            nonfinite.setdefault((sub, ", ".join(files)), []).append({**top, sub: section})
    print(f"{sum(codes.values())} configs, exit codes: "
          + ", ".join(f"{rc}: {count}" for rc, count in sorted(codes.items())))
    print(f"{sum(keyless.values())} of {codes[1] + codes[2]} exit-1/2 messages name no key")
    for (sub, message), count in keyless.most_common():
        print(f"{count:6d}  {sub}: {message}")
    print(f"{sum(map(len, nonfinite.values()))} of {codes[0]} exit-0 runs wrote a "
          f"non-finite value")
    for (sub, files), configs in nonfinite.items():
        print(f"{len(configs):6d}  {sub} ({files}): {json.dumps(configs[0])}")


if __name__ == "__main__":
    census(*map(int, sys.argv[1:3]))
