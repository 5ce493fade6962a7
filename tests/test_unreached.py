"""``tools/report_digest.py --unreached`` without running the digest.

The allowlist must name functions that exist, the keys read from the
source must be those of the code objects the profile hook records, and a
function the runs do not call must be reported unless it is listed.
"""

import importlib.util
from pathlib import Path

from oscillap import PureSine, shoot_plap, thresholds

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
_spec = importlib.util.spec_from_file_location("report_digest", TOOL)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

FUNCTIONS = digest.src_functions()


def _key(fn):
    code = fn.__code__
    return Path(code.co_filename).stem, code.co_firstlineno, code.co_name


def test_every_allowlist_entry_names_a_function_in_src():
    assert set(digest.ALLOWLIST) <= set(FUNCTIONS)
    assert all(reason.strip() for reason in digest.ALLOWLIST.values())


def test_source_keys_are_the_code_objects_keys():
    # a plain function, a decorated method (its code starts at the
    # decorator) and a function nested in a method
    assert FUNCTIONS["shoot_plap.shoot"][:3] == _key(shoot_plap.shoot)
    assert FUNCTIONS["thresholds.Operator.exponent"][:3] == \
        _key(thresholds.Operator.exponent.fget)
    assert FUNCTIONS["thresholds.Operator.p_laplacian"][:3] == \
        _key(thresholds.Operator.p_laplacian.__func__)
    assert FUNCTIONS["shoot_plap.ShootConfig.system.<locals>.rhs"][:3] == \
        _key(shoot_plap.ShootConfig(2.0, 1, 1.0).system(PureSine())[0])


def test_misses_flag_an_unlisted_function_and_a_stale_entry():
    called = {v[:3] for q, v in FUNCTIONS.items() if q not in digest.ALLOWLIST}
    assert digest.misses(FUNCTIONS, called, digest.ALLOWLIST) == \
        ([], sorted(digest.ALLOWLIST), [])

    called.discard(FUNCTIONS["shoot_plap.shoot"][:3])
    unlisted, listed, stale = digest.misses(FUNCTIONS, called, digest.ALLOWLIST)
    assert (unlisted, listed, stale) == (["shoot_plap.shoot"],
                                         sorted(digest.ALLOWLIST), [])

    # a listed function that runs, and a listed name that is gone
    allow = {**digest.ALLOWLIST, "shoot_plap.diagram": "deleted"}
    called.add(FUNCTIONS["shoot_plap.clustered_heights"][:3])
    _, _, stale = digest.misses(FUNCTIONS, called, allow)
    assert stale == ["shoot_plap.clustered_heights", "shoot_plap.diagram"]
