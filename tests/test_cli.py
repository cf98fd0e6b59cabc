from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambek import grammar_from_text, parse_sequent, proof_from_json
from lambek.cli import EXIT_INTERNAL, main

GOOD_INSTANCE = '{"m": 1, "N": 12, "sizes": [4, 4, 4]}'
UNSOLVABLE = '{"m": 2, "N": 16, "sizes": [5, 5, 5, 5, 5, 7]}'
ILL_FORMED = '{"m": 1, "N": 12, "sizes": [3, 4, 5]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_derivable(capsys):
    code, out, err = run(capsys, "prove", "a/b, b => a")
    assert code == 0
    assert out.strip() == "derivable"
    assert err == ""


def test_prove_underivable(capsys):
    code, out, _ = run(capsys, "prove", "a => b")
    assert code == 1
    assert out.strip() == "not derivable"


def test_prove_with_proof(capsys):
    code, out, _ = run(capsys, "prove", "a/b, b => a", "--proof")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "derivable"
    assert lines[1].startswith("a/b, b => a")
    assert len(lines) == 4


def test_prove_unquoted_sequent_is_joined(capsys):
    code, out, _ = run(capsys, "prove", "a/b,", "b", "=>", "a")
    assert code == 0


def test_prove_json(capsys):
    code, out, _ = run(capsys, "prove", "s/c, b\\c => b -o s", "--output", "json", "--proof")
    assert code == 0
    payload = json.loads(out)
    assert payload["derivable"] is True
    assert payload["mode"] == "sdl"
    assert payload["sequent"] == "s/c, b\\c => b -o s"
    assert payload["stats"]["nodes_expanded"] >= 1
    tree = proof_from_json(payload["proof"])
    assert tree.insert == 1


def test_prove_mode_warning(capsys):
    code, out, err = run(capsys, "prove", "s/c, b\\c => b -o s", "--mode", "l")
    assert code == 1
    assert out.strip() == "not derivable"
    assert "warning:" in err and "-o" in err


def test_prove_syntax_error(capsys):
    code, out, err = run(capsys, "prove", "a//b => a")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_prove_budget_exhausted(capsys):
    code, out, _ = run(capsys, "prove", "a/b, b => a", "--budget", "1")
    assert code == 3
    assert "unknown" in out


def test_prove_json_deep_formula(capsys):
    # Printing the sequent must not recurse per level of the formula.
    text = "b" + "/a" * 6000 + " => c"
    code, out, _ = run(capsys, "prove", text, "--output", "json")
    assert code == 1
    assert parse_sequent(json.loads(out)["sequent"]) == parse_sequent(text)


def test_prove_deeper_than_the_depth_bound_is_unknown(capsys):
    # Its one proof has depth 12,001, past the search's bound of 10,000.
    code, out, _ = run(capsys, "prove", "b" + "/a" * 6000 + " => " + "a -o " * 6000 + "b")
    assert (code, out) == (3, "unknown (budget exhausted)\n")


def test_prove_too_many_atoms_is_an_input_error(capsys):
    text = ", ".join(["a"] * 32_767) + " => a"
    code, out, err = run(capsys, "prove", text)
    assert code == 2
    assert out == ""
    assert err == "error: sequents with 32768 or more atom occurrences are not supported\n"


@pytest.mark.parametrize("module", ["lambek", "lambek.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", module, "prove", "a => b"], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "not derivable\n", "")


def test_prove_budget_exhausted_json(capsys):
    code, out, _ = run(capsys, "prove", "a/b, b => a", "--budget", "1", "--output", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["derivable"] is None
    assert payload["budget_exhausted"] is True


def test_parse_builtin_member(capsys):
    code, out, _ = run(capsys, "parse", "--builtin", "anbncn", "a", "a", "b", "b", "c", "c")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "member"
    assert len(lines) == 7  # one line per token


def test_parse_word_can_be_one_argument(capsys):
    code, out, _ = run(capsys, "parse", "--builtin", "anbncn", "a b c")
    assert code == 0


def test_parse_nonmember(capsys):
    code, out, _ = run(capsys, "parse", "--builtin", "anbncn", "a", "c", "b")
    assert code == 1
    assert out.strip() == "not a member"


def test_parse_unknown_terminal(capsys):
    code, _, err = run(capsys, "parse", "--builtin", "anbncn", "a", "q")
    assert code == 2
    assert "q" in err


def test_parse_json_with_proof(capsys):
    code, out, _ = run(
        capsys, "parse", "--builtin", "anbncn", "a", "b", "c", "--output", "json", "--proof"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["assignment"] == ["x/(c -o b -o y)", "y/b/z", "z/c"]
    assert payload["proof"]["sequent"].endswith("=> x")


def test_parse_budget_gives_unknown(capsys):
    code, out, _ = run(capsys, "parse", "--builtin", "anbncn", "a", "b", "c", "--budget", "1")
    assert code == 3
    assert "unknown" in out


def test_parse_nan_deadline_is_an_input_error(capsys):
    code, out, err = run(capsys, "parse", "--builtin", "anbncn", "a", "b", "c", "--deadline", "nan")
    assert code == 2
    assert out == "" and "deadline" in err


def test_parse_grammar_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("start: s\nthe: np/n\ncat: n\nsleeps: np\\s\n")
    code, out, _ = run(capsys, "parse", "--grammar", str(path), "--mode", "l", "the cat sleeps")
    assert code == 0
    code, _, _ = run(capsys, "parse", "--grammar", str(path), "--mode", "l", "cat the sleeps")
    assert code == 1


def test_parse_bad_grammar_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("the: np/n\n")
    code, _, err = run(capsys, "parse", "--grammar", str(path), "the")
    assert code == 2
    assert "start" in err


def test_reduce_text(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(GOOD_INSTANCE)
    code, out, _ = run(capsys, "reduce", str(path))
    assert code == 0
    assert "start: a" in out
    assert out.splitlines()[-1] == "v w1 w2 w3"


def test_reduce_writes_prefix_files(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(GOOD_INSTANCE)
    prefix = tmp_path / "enc"
    code, out, _ = run(capsys, "reduce", str(path), str(prefix))
    assert code == 0
    assert out.strip() == "v w1 w2 w3"
    assert (tmp_path / "enc.word").read_text() == "v w1 w2 w3\n"
    g = grammar_from_text((tmp_path / "enc.grammar").read_text())
    assert g.start == "a"
    assert set(g.lexicon) == {"v", "w1", "w2", "w3"}

    # The two files feed straight back into parse.
    word = (tmp_path / "enc.word").read_text().split()
    code, _, _ = run(capsys, "parse", "--grammar", str(tmp_path / "enc.grammar"), *word)
    assert code == 0


def test_reduce_json_round_trips_through_parse(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    path.write_text(GOOD_INSTANCE)
    code, out, _ = run(capsys, "reduce", str(path), "--output", "json")
    assert code == 0
    payload = json.loads(out)
    monkeypatch.setattr("sys.stdin", io.StringIO(payload["grammar"]))
    code, out, _ = run(capsys, "parse", "--grammar", "-", *payload["word"])
    assert code == 0


def test_reduce_rejects_ill_formed(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(ILL_FORMED)
    code, _, err = run(capsys, "reduce", str(path))
    assert code == 2
    assert "position 1" in err


def test_reduce_missing_file(capsys):
    code, _, err = run(capsys, "reduce", "/nonexistent/inst.json")
    assert code == 2
    assert err.startswith("error:")


def test_reduce_unwritable_prefix(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(GOOD_INSTANCE)
    code, out, err = run(capsys, "reduce", str(path), str(tmp_path / "missing" / "enc"))
    assert code == 2
    assert err.startswith("error:") and "enc.grammar" in err
    assert out == ""


def test_solve3p(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(GOOD_INSTANCE)
    code, out, _ = run(capsys, "solve3p", str(path))
    assert code == 0
    assert out.splitlines()[0] == "solvable"
    assert "triple 1: positions 1 2 3" in out

    path.write_text(UNSOLVABLE)
    code, out, _ = run(capsys, "solve3p", str(path))
    assert code == 1
    assert out.strip() == "not solvable"

    path.write_text(ILL_FORMED)
    code, _, err = run(capsys, "solve3p", str(path))
    assert code == 2


def test_solve3p_json_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(GOOD_INSTANCE))
    code, out, _ = run(capsys, "solve3p", "-", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"solvable": True, "partition": [[1, 2, 3]]}


def test_bad_subcommand_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["parse", "a"])  # neither --grammar nor --builtin
    assert e.value.code == 2


def test_budget_must_be_positive(capsys):
    with pytest.raises(SystemExit) as e:
        main(["prove", "a => a", "--budget", "0"])
    assert e.value.code == 2


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    # A ValueError is bad input only where input is read: one raised
    # while rendering a proof is a bug, and nothing is printed.
    rows = [
        ("lambek.cli.prove", RecursionError("maximum recursion depth exceeded"), ["prove", "a => a"]),
        ("lambek.cli.render_proof", ValueError("not a proof"), ["prove", "a => a", "--proof"]),
    ]
    for target, error, argv in rows:
        def crash(*args, **kwargs):
            raise error

        with monkeypatch.context() as m:
            m.setattr(target, crash)
            code, out, err = run(capsys, *argv)
        assert code == EXIT_INTERNAL == 4
        assert out == ""
        assert err == f"internal error: {type(error).__name__}: {error}\n"


def test_prove_a_formula_nested_thousands_of_parentheses_deep(capsys):
    n = 4_000
    for text, expected in (("(" * n + "a" + ")" * n + " => a", 0), ("a/(" * n + "a" + ")" * n + " => a", 1)):
        code, out, err = run(capsys, "prove", text, "--output", "json", "--proof")
        assert (code, err) == (expected, "")
        assert json.loads(out)["derivable"] is (expected == 0)


ANBNCN_WORDS = ("a b c", "a c b")
TOY_GRAMMAR = "start: s\nthe: np/n\ncat: n\nsleeps: np\\s\n"

# (argv, stdin) for every subcommand and outcome: yes, no, unknown and
# input error, in text and JSON output, with and without --proof.
TRANSCRIPT_CALLS: list[tuple[list[str], str]] = [
    *(
        (["prove", seq, *opts], "")
        for seq in ("a/b, b => a", "a => b", "s/c, b\\c => b -o s", "b\\c\\x => b -o c\\x", "x/c/b => b -o (x/c)")
        for opts in ([], ["--proof"], ["--output", "json"], ["--output", "json", "--proof"])
    ),
    *(
        (["prove", "a/b, b => a", "--budget", "1", *opts], "")
        for opts in ([], ["--proof"], ["--output", "json"], ["--output", "json", "--proof"])
    ),
    (["prove", "s/c, b\\c => b -o s", "--mode", "l"], ""),
    (["prove", "s/c, b\\c => b -o s", "--mode", "l", "--output", "json"], ""),
    (["prove", "a/b => a/b", "--mode", "sdl-", "--output", "json"], ""),
    (["prove", "a//b => a"], ""),
    (["prove", "a//b => a", "--output", "json"], ""),
    *(
        (["parse", "--builtin", "anbncn", word, *opts], "")
        for word in ANBNCN_WORDS
        for opts in ([], ["--proof"], ["--output", "json"], ["--output", "json", "--proof"])
    ),
    (["parse", "--builtin", "anbncn", "a", "b", "c", "--budget", "1"], ""),
    (["parse", "--builtin", "anbncn", "a", "b", "c", "--budget", "1", "--output", "json", "--proof"], ""),
    (["parse", "--builtin", "anbncn", "a", "q"], ""),
    (["parse", "--grammar", "-", "--mode", "l", "the cat sleeps", "--proof"], TOY_GRAMMAR),
    (["parse", "--grammar", "-", "--mode", "l", "cat the sleeps", "--output", "json"], TOY_GRAMMAR),
    (["parse", "--grammar", "-", "the"], "the: np/n\n"),
    (["parse", "--grammar", "missing.grammar", "the"], ""),
    (["reduce", "-"], GOOD_INSTANCE),
    (["reduce", "-", "--output", "json"], GOOD_INSTANCE),
    (["reduce", "-", "enc"], GOOD_INSTANCE),
    (["reduce", "-"], ILL_FORMED),
    (["reduce", "-", "--output", "json"], "{"),
    (["reduce", "missing.json"], ""),
    *(
        (["solve3p", "-", *opts], inst)
        for inst in (GOOD_INSTANCE, UNSOLVABLE, ILL_FORMED, "[1]")
        for opts in ([], ["--output", "json"])
    ),
]
TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")


def transcript() -> list[dict]:
    """Exit code, stdout and stderr of ``main`` on each of ``TRANSCRIPT_CALLS``.

    ``cli_transcript.json`` holds the expected list.  It is rewritten
    only for an intended change of output, by running this function in
    an empty directory and dumping the result with ``json.dump(...,
    indent=1)``.
    """
    out = []
    for argv, stdin in TRANSCRIPT_CALLS:
        stdout, stderr, saved = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            sys.stdin = saved
        out.append({"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    return out


def test_cli_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(TRANSCRIPT.read_text())
    got = transcript()
    assert [e["argv"] for e in got] == [e["argv"] for e in expected]
    for g, e in zip(got, expected):
        assert g == e, g["argv"]
    assert {e["code"] for e in got} == {0, 1, 2, 3}


def _fuzz_call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main``, argparse's ``SystemExit`` included."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2, argv
            code = 2
    return code, stdout.getvalue(), stderr.getvalue()


_FUZZ = settings(max_examples=300, deadline=None, database=None)


_TOKENS = st.lists(st.sampled_from(["a", "b", "c", "/", "\\", "(", ")", "-o", "=>", ","]), max_size=14).map(" ".join)
# Random tokens rarely parse, so half the inputs are sequents over the same tokens.
_FORMULA = st.recursive(
    st.sampled_from(["a", "b", "c"]),
    lambda inner: st.tuples(inner, st.sampled_from(["/", "\\", "-o"]), inner).map(lambda t: f"({' '.join(t)})"),
    max_leaves=6,
)
_SEQUENT = st.tuples(st.lists(_FORMULA, min_size=1, max_size=4), _FORMULA).map(lambda t: f"{', '.join(t[0])} => {t[1]}")


@_FUZZ
@given(st.one_of(_TOKENS, _SEQUENT), st.sampled_from(["l", "sdl", "sdl-"]), st.sampled_from(["text", "json"]))
def test_cli_prove_fuzz(text, mode, output):
    argv = ["prove", text, "--mode", mode, "--budget", "3000", "--proof", "--output", output]
    code, out, err = _fuzz_call(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in out + err, argv
    if output == "json" and code != 2:
        json.loads(out)


@_FUZZ
@given(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=9),
    st.one_of(st.none(), st.sampled_from(["nan", "-1", "0", "inf"]), st.floats(0, 0.05).map(repr)),
)
def test_cli_parse_fuzz(word, deadline):
    argv = ["parse", "--builtin", "anbncn", *word, "--budget", "3000"]
    if deadline is not None:
        argv += ["--deadline", deadline]
    code, out, err = _fuzz_call(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in out + err, argv
