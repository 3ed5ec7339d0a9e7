"""The CLI's answer to any argv: an exit code of 0, 2, 3 or 4, exactly one
``error:`` line on stderr when it is not 0, and never a traceback.

The fuzz builds argv from the parser's own flags for all five commands:
every flag at a usable value, and up to three drawn from their pools.  An
integer flag's pool holds values below its minimum and extreme ones (up to
2**64) that are refused before anything is allocated or fail fast (an object
count too large to place); ``--iterations`` stays small, since every step is
real work."""

import argparse
import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayfields import cli
from rayfields.cli import EXIT_GENERATION, EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main

EXIT_CODES = {EXIT_OK, EXIT_INPUT, EXIT_GENERATION, EXIT_NUMERICAL}
INTS = (-2**63, -1, 0, 1, 2, 2**62, 2**63, 2**64)
STEPS = (-1, 0, 1, 2)
FLOATS = ("nan", "inf", "-inf", "-1", "0", "1e-3", "1e308")
BAD_VIEWS = (0, 4)
USABLE = 2  # small, and at or above every integer flag's minimum


def run(argv):
    """Exit code, stdout and stderr of one command, and the numerical
    warnings it emitted (which a command run from the shell prints and goes
    on); argparse's own refusal is an exit like any other."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in warned]


def assert_clean_exit(code, out, err, warned):
    """An exit code of the four, one ``error:`` line and no output unless
    it is 0, and no numerical warning but on the way to a numerical
    failure's exit."""
    assert code in EXIT_CODES
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    if code == EXIT_OK:
        assert errors == []
    else:
        assert len(errors) == 1 and out == ""
    assert not warned or code == EXIT_NUMERICAL, warned


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """A 4x4 one-view dataset (its scene.json has 8 + 8 samples), a scene
    document that does not parse, an empty directory, a missing path and an
    output directory."""
    root = tmp_path_factory.mktemp("argv")
    data = root / "data"
    code, *_ = run(["generate", "--out", data, "--resolution", "4", "--views", "1", "--n-coarse", "8",
                      "--n-fine", "8"])
    assert code == EXIT_OK
    (root / "bad.json").write_text("{not json")
    (root / "empty").mkdir()
    return {"scene": data / "scene.json", "data": data, "bad": root / "bad.json", "empty": root / "empty",
            "missing": root / "missing", "out": root / "out"}


def _flag_values(action: argparse.Action, paths: dict) -> tuple:
    """The values one flag is drawn from, a usable one first; None leaves
    the flag out."""
    if action.nargs == 0:
        return (False, True)
    if action.choices:
        return (*action.choices, *BAD_VIEWS)
    if action.type is int:
        omit = (None,) if action.default is None else ()  # left out, each such flag stays small
        return (USABLE, *(STEPS if action.dest == "iterations" else INTS), *omit)
    if action.type is float:
        return (None, *FLOATS)
    if action.dest == "out":
        return (paths["out"],)
    files = (paths["scene"], paths["bad"], paths["missing"])
    dirs = (paths["data"], paths["empty"], paths["missing"])
    pool = dirs if action.dest in ("data", "pred", "truth") else files
    return pool if action.required else (None, *pool)


def _commands() -> dict:
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@st.composite
def argvs(draw, command: str, paths: dict):
    """A usable argv of ``command`` with up to three of its flags drawn
    from their whole pools."""
    actions = [a for a in _commands()[command]._actions if not isinstance(a, argparse._HelpAction)]
    fuzzed = draw(st.sets(st.sampled_from([a.dest for a in actions]), max_size=3))
    argv = [command]
    for action in actions:
        pool = _flag_values(action, paths)
        value = draw(st.sampled_from(pool)) if action.dest in fuzzed else pool[0]
        if value is True:
            argv.append(action.option_strings[0])
        elif value is not None and value is not False:
            argv.append(f"{action.option_strings[0]}={value}")
    return argv


def test_fuzz_covers_every_command():
    assert set(_commands()) == {"render", "generate", "fit", "bias-demo", "eval"}


@pytest.mark.parametrize("command", ["render", "generate", "fit", "bias-demo", "eval"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_argv_exits_cleanly(paths, command, data):
    argv = data.draw(argvs(command, paths))
    assert_clean_exit(*run(argv))


# Inputs that once ended in a NumPy ValueError and a traceback: sample
# counts whose draws NumPy cannot allocate, and object counts beyond the
# int64 draw.
HUGE = [
    (["render", "--scene", "{scene}", "--resolution", "4", "--n-coarse", 2**62], "error: a 4x4 view needs more"),
    (["render", "--scene", "{scene}", "--resolution", "4", "--n-fine", 2**62], "error: a 4x4 view needs more"),
    (["generate", "--resolution", "4", "--n-coarse", 2**62], "error: a 4x4 view needs more"),
    (["generate", "--resolution", "4", "--n-fine", 2**62], "error: a 4x4 view needs more"),
    (["bias-demo", "--k", 2**62], f"error: --k {2**62} needs more"),
    (["bias-demo", "--k", 2**62, "--hierarchical"], f"error: --k {2**62} needs more"),
    (["generate", "--resolution", "4", "--n-objects-max", 2**63],
     "error: bad scene settings: n_objects_max must be < 2**63"),
    (["fit", "--data", "{data}", "--init-random", 2**63, "--iterations", "1"],
     "error: bad scene settings: n_objects_max must be < 2**63"),
]


@pytest.mark.parametrize("argv,words", HUGE, ids=lambda v: " ".join(map(str, v)) if isinstance(v, list) else "")
def test_sizes_beyond_numpy_exit_2(paths, tmp_path, argv, words):
    argv = [str(arg).format(**paths) for arg in argv]
    if argv[0] != "bias-demo":
        argv += ["--out", tmp_path / "o"]
    code, out, err, warned = run(argv)
    assert_clean_exit(code, out, err, warned)
    assert code == EXIT_INPUT and err.startswith(words)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,message", [
    (["bias-demo", "--n-trials", "1", "--k", 2**62], "bad bias-demo settings: n_trials must be >= 2, got 1"),
    (["bias-demo", "--k", "1", "--n-trials", 2**62], "bad bias-demo settings: n_coarse must be >= 2, got 1"),
    (["bias-demo", "--seed", "-1"], "bad bias-demo settings: seed must be >= 0, got -1"),
    (["generate", "--out", "{out}", "--n-coarse", "1"], "bad quadrature: n_coarse must be >= 2, got 1"),
    (["generate", "--out", "{out}", "--scene-seed", "-1"], "bad flag: --scene-seed must be >= 0, got -1"),
    (["generate", "--out", "{out}", "--resolution", "0"], "bad scene settings: resolution must be >= 1, got 0"),
    (["render", "--scene", "{scene}", "--out", "{out}", "--resolution", "0"],
     "bad camera: width must be >= 1, got 0"),
    (["render", "--scene", "{scene}", "--out", "{out}", "--n-fine", "-1"],
     "bad quadrature: n_fine must be >= 0, got -1"),
    (["fit", "--data", "{data}", "--out", "{out}", "--init-random", "2", "--fit-seed", "-1"],
     "bad fit settings: seed must be >= 0, got -1"),
    (["fit", "--data", "{data}", "--out", "{out}", "--init-random", "2", "--trace-points", "0"],
     "bad flag: --trace-points must be >= 1, got 0"),
    (["fit", "--data", "{data}", "--out", "{out}", "--init-random", "0"],
     "bad scene settings: n_objects_min must be >= 1, got 0"),
])
def test_bad_flags_are_named_by_the_config_they_feed(paths, tmp_path, argv, message):
    """Checked before any work or memory check, in the words of the check
    that refuses them."""
    code, out, err, warned = run([str(arg).format(**{**paths, "out": tmp_path / "o"}) for arg in argv])
    assert (code, out, err, warned) == (EXIT_INPUT, "", f"error: {message}\n", [])
    assert not (tmp_path / "o").exists()
