import re
import shlex
from pathlib import Path

import pytest

from matchgame.cache import CacheEntry, cache_put
from matchgame.canon import canonical_certificate
from matchgame.cli import main
from matchgame.families import cycle
from matchgame.graph6 import parse


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_solve_cycle6(capsys):
    rc, out, _ = run(capsys, "solve", "--gen", "cycle:6", "--player", "max")
    assert rc == 0
    assert "value=2" in out
    assert "alpha_prime=3" in out and "mu=2" in out
    assert "player=max mode=subset cache=off" in out
    rc, out, _ = run(capsys, "solve", "--gen", "cycle:6", "--player", "min")
    assert rc == 0 and "value=3" in out


def test_solve_variants(capsys):
    rc, out, _ = run(capsys, "solve", "--gen", "path:7")
    assert rc == 0 and "value=3" in out
    rc, out, _ = run(capsys, "solve", "--g6", "A_", "--player", "min")
    assert rc == 0 and "value=1" in out
    rc, out, _ = run(capsys, "solve", "--gen", "path:4", "--mode", "iso")
    assert rc == 0 and "value=2" in out and "optimal_moves=0-1 2-3" in out
    rc, out, _ = run(capsys, "solve", "--g6", "?")
    assert rc == 0 and "value=0" in out and "optimal_moves=(none)" in out


def test_solve_from_file(capsys, tmp_path):
    p = tmp_path / "one.g6"
    p.write_text("\nDhC\n")
    rc, out, _ = run(capsys, "solve", "--file", str(p), "--player", "min")
    assert rc == 0 and "n=5" in out and "value=2" in out


def test_solve_source_errors(capsys):
    rc, _, err = run(capsys, "solve")
    assert rc == 1 and "exactly one" in err
    rc, _, err = run(capsys, "solve", "--g6", "A_", "--gen", "cycle:6")
    assert rc == 1 and "exactly one" in err
    rc, _, err = run(capsys, "solve", "--g6", "A ")
    assert rc == 1 and "error:" in err
    rc, _, err = run(capsys, "solve", "--gen", "cycle:3..5")
    assert rc == 1 and "single graph" in err
    rc, _, err = run(capsys, "solve", "--gen", "mystery:1")
    assert rc == 1 and "available" in err


def test_solve_budget_error(capsys):
    rc, _, err = run(capsys, "solve", "--gen", "cycle:12", "--budget", "2")
    assert rc == 1 and "memo" in err


def test_solve_cache_round_trip(capsys, tmp_path):
    path = str(tmp_path / "values.cache")
    rc, cold, _ = run(capsys, "solve", "--gen", "cycle:6", "--cache", path)
    assert rc == 0 and "cache=miss" in cold and "value=2" in cold
    rc, warm, _ = run(capsys, "solve", "--gen", "cycle:6", "--cache", path)
    assert rc == 0 and "cache=hit" in warm and "value=2" in warm
    assert "cached values only" in warm
    rc, other, _ = run(capsys, "solve", "--gen", "cycle:6", "--cache", path, "--player", "min")
    assert rc == 0 and "cache=hit" in other and "value=3" in other


def test_solve_cache_rejects_unsound_entry(capsys, tmp_path):
    path = str(tmp_path / "values.cache")
    cert = canonical_certificate(cycle(6))
    cache_put(path, CacheEntry(cert, 9, 9))  # outside the mu..alpha window
    rc, out, _ = run(capsys, "solve", "--gen", "cycle:6", "--cache", path)
    assert rc == 0 and "cache=miss" in out and "value=2" in out


def test_gen(capsys):
    rc, out, _ = run(capsys, "gen", "--gen", "cycle:3..5")
    assert rc == 0
    lines = out.splitlines()
    assert [parse(s).n for s in lines] == [3, 4, 5]
    rc, out, _ = run(capsys, "gen", "--gen", "gadget_H")
    assert rc == 0 and parse(out.strip()).n == 16


def test_table(capsys):
    rc, out, _ = run(capsys, "table", "--gen", "path", "--range", "6..8")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "   n  alpha   mu  Max  Min"
    assert lines[1] == "   6      3    2    3    2"
    assert lines[2] == "   7      3    2    3    3"
    assert lines[3] == "   8      4    3    3    3"


def test_verify_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--check", "diff_le_one", "--corpus", "exhaustive:5")
    assert rc == 0
    assert "diff_le_one: pass (34 classes)" in out


def test_verify_fail_lists_violations(capsys, tmp_path):
    records = tmp_path / "records.tsv"
    rc, out, _ = run(
        capsys, "verify", "--check", "krr_product_pm", "--corpus", "named:paw_p3",
        "--records", str(records),
    )
    assert rc == 1
    assert "violation:" in out
    assert "krr_product_pm: fail (1 instances, 1 violations)" in out
    assert records.read_text().strip().endswith("fail")


def test_verify_cubic_spec_without_even_order_fails(capsys):
    rc, out, err = run(capsys, "verify", "--check", "diff_le_one", "--corpus", "cubic:7")
    assert rc == 1
    assert "pass" not in out
    assert "connected cubic corpus needs even 4 <= n <= 14" in err


@pytest.mark.parametrize("argv, message", [
    (("gen", "--gen", "path:abc"), "parameter 'abc' is not an integer"),
    (("verify", "--check", "diff_le_one", "--corpus", "exhaustive:x"),
     "parameter 'x' is not an integer"),
    (("table", "--gen", "path", "--range", "4..y"), "range bound 'y' is not an integer"),
    (("verify", "--check", "diff_le_one", "--corpus", "random_forest:a:3"),
     "random_forest COUNT 'a' is not an integer"),
])
def test_malformed_integer_in_a_spec_is_an_error(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


def test_verify_unknown_check(capsys):
    rc, _, err = run(capsys, "verify", "--check", "nope", "--corpus", "exhaustive:3")
    assert rc == 2 and "available" in err


def test_verify_jobs(capsys):
    rc, out, _ = run(
        capsys, "verify", "--check", "trivial_bounds", "--corpus", "exhaustive:4",
        "--jobs", "2",
    )
    assert rc == 0 and "pass (11 classes)" in out


def test_play_exact(capsys):
    rc, out, _ = run(capsys, "play", "--gen", "cycle:6", "--start", "min")
    assert rc == 0
    assert "game on g6=" in out and "start=min" in out
    assert "1. min " in out and "3. min " in out
    assert "final size: 3" in out
    assert "optimal value: 3 (matches optimal play)" in out


def test_play_mode_reaches_exact_seats(capsys, monkeypatch):
    import matchgame.cli as cli
    from matchgame.strategies import make_strategy

    made = []

    def recording(*args, **kwargs):
        made.append(make_strategy(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "make_strategy", recording)
    finals = {}
    for mode in ("subset", "iso"):
        rc, out, _ = run(capsys, "play", "--gen", "path:9", "--mode", mode)
        assert rc == 0 and "(matches optimal play)" in out
        finals[mode] = [ln for ln in out.splitlines() if ln.startswith("final size:")]
    assert [s.mode for s in made] == ["subset", "subset", "iso", "iso"]
    assert finals["iso"] == finals["subset"] == ["final size: 4"]


def test_play_suboptimal_tagged(capsys):
    rc, out, _ = run(
        capsys, "play", "--gen", "path:7", "--first", "greedy_first",
        "--second", "greedy_first",
    )
    assert rc == 0 and "final size:" in out
    assert ("matches optimal play" in out) or ("differs from optimal play" in out)


def test_play_budget_note(capsys):
    rc, out, _ = run(
        capsys, "play", "--gen", "cycle:12", "--first", "greedy_first",
        "--second", "greedy_first", "--budget", "2",
    )
    assert rc == 0 and "optimal value: unavailable (memo budget)" in out


def test_play_skips_comparison_on_big_graphs(capsys):
    rc, out, _ = run(
        capsys, "play", "--gen", "G_k:1", "--first", "greedy_first",
        "--second", "min_gk",
    )
    assert rc == 0 and "optimal value: skipped (n > 24)" in out


def test_play_unknown_strategy(capsys):
    rc, _, err = run(capsys, "play", "--gen", "cycle:6", "--first", "nope")
    assert rc == 1 and "available" in err


def _scripted_input(monkeypatch, lines):
    it = iter(lines)

    def fake_input(prompt=""):
        print(prompt, end="")
        try:
            return next(it)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)


def test_play_interactive(capsys, monkeypatch):
    _scripted_input(monkeypatch, ["9 9", "garbage", "0 1"])
    rc, out, _ = run(
        capsys, "play", "--gen", "path:4", "--interactive", "first",
        "--second", "exact",
    )
    assert rc == 0
    assert "legal moves: 0-1 1-2 2-3" in out
    assert out.count("illegal move") == 2
    assert "1. max 0-1" in out
    assert "final size: 2" in out and "matches optimal play" in out


def test_play_interactive_lists_moves_in_edge_order(capsys, monkeypatch):
    _scripted_input(monkeypatch, [])
    rc, out, _ = run(capsys, "play", "--gen", "cycle:12", "--interactive", "first")
    assert rc == 1
    assert "legal moves: 0-1 0-11 1-2 2-3 3-4 4-5 5-6 6-7 7-8 8-9 9-10 10-11\n" in out
    assert "aborted after 0 moves" in out


def test_play_interactive_eof_aborts(capsys, monkeypatch):
    _scripted_input(monkeypatch, ["0 1"])
    rc, out, _ = run(
        capsys, "play", "--gen", "path:7", "--interactive", "first",
        "--second", "exact",
    )
    assert rc == 1
    assert "1. max 0-1" in out and "2. min " in out
    assert "aborted after 2 moves" in out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["solve", "--mode", "warp"])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("solve", "--gen", "cycle:5", "--budget", "-3"), "--budget"),
        (("solve", "--gen", "cycle:5", "--budget", "0"), "--budget"),
        (("table", "--gen", "path", "--range", "2..3", "--budget", "0"), "--budget"),
        (("play", "--gen", "cycle:5", "--budget", "-1"), "--budget"),
        (("verify", "--check", "diff_le_one", "--corpus", "exhaustive:3", "--budget", "0"), "--budget"),
        (("verify", "--check", "diff_le_one", "--corpus", "exhaustive:3", "--jobs", "0"), "--jobs"),
        (("verify", "--check", "diff_le_one", "--corpus", "exhaustive:3", "--jobs", "-2"), "--jobs"),
    ],
)
def test_non_positive_budget_and_jobs_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 1" in err


def test_budget_and_jobs_of_one_are_accepted(capsys):
    rc, out, _ = run(capsys, "solve", "--gen", "path:2", "--budget", "1")
    assert rc == 0 and "value=1" in out
    rc, out, _ = run(
        capsys, "verify", "--check", "trivial_bounds", "--corpus", "exhaustive:3", "--jobs", "1",
    )
    assert rc == 0 and "pass (4 classes)" in out


def _readme_examples():
    """(argv, expected output) for each ``$ matchgame ...`` block of the README."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```\n(\$ matchgame .*?)^```$", text, re.M | re.S):
        command, _, output = block.partition("\n")
        yield shlex.split(command)[2:], output


def _mask_times(text):
    return re.sub(r"\[\d+\.\d+s\]", "[..s]", re.sub(r"time=\d+\.\d+s", "time=..s", text))


def test_readme_examples_match_the_cli(capsys):
    examples = list(_readme_examples())
    assert [argv[0] for argv, _ in examples] == ["solve", "gen", "table", "verify", "play"]
    for argv, expected in examples:
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert _mask_times(out) == _mask_times(expected)
