"""Config fuzzer: every subcommand, every schema key, tiny sizes, extreme valid values.

Each drawn config passes the schema in ``ctpsim.cli``, so the run must end in
one of the documented exit codes (0 ok, 1 config, 2 numerical, 3 verify)
with no traceback and no warning.  Sizes stay tiny, so a call takes
milliseconds; the values are the extremes of the float range.
"""

import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

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


def run_cli(sub: str, top: dict, section: dict) -> tuple[int, str]:
    """Exit code and stderr of one in-process run; warnings are recorded, not shown."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**top, sub: section}))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            # an exception escaping main is the traceback a user would see
            rc = main([sub, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert not caught, [str(w.message) for w in caught]
    return rc, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=CONFIGS)
@example(case=("squeeze", {"n_realizations": 1}, {"omega": 1e300, "n_points": 3}))
@example(case=("inflation", {"n_realizations": 1}, {"decades": 400.0, "n_points": 3}))
@example(case=("inflation", {"n_realizations": 1}, {"k_min": 1e-300, "n_points": 3}))
@example(case=("kernels", {"n_realizations": 1},
               {"t_end": 1e300, "omega": 1e300, "n_points": 3}))
def test_valid_config_ends_in_a_documented_exit_code(case):
    sub, top, section = case
    rc, err = run_cli(sub, top, section)
    assert rc in (0, 1, 2, 3), err
    assert "Traceback" not in err
    assert "Warning" not in err
