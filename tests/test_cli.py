"""Command-line interface: outputs, exit codes, and determinism."""

import json
import os
import subprocess
import sys

import pytest

from wpengine.cli import main


@pytest.fixture()
def geo_file(tmp_path):
    path = tmp_path / "geo.pgcl"
    path.write_text("while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }")
    return str(path)


@pytest.fixture()
def coin_file(tmp_path):
    path = tmp_path / "coin.pgcl"
    path.write_text("{x := 0} [1/3] {x := 1}")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wp_syntactic(capsys, coin_file):
    code, out, _ = run(capsys, "wp", "--syntactic", "-p", coin_file, "-f", "x")
    assert code == 0
    assert out.strip() == "1/3 * 0 + 2/3 * 1"


def test_wp_syntactic_value_at_state(capsys, coin_file):
    code, out, _ = run(capsys, "wp", "--syntactic", "-p", coin_file,
                       "-f", "x", "--at", "x=5")
    assert code == 0
    assert out.splitlines()[1].endswith("2/3")


def test_wp_kleene(capsys, geo_file):
    code, out, _ = run(capsys, "wp", "--kleene", "4", "-p", geo_file,
                       "-f", "x", "--at", "c=1,x=0")
    assert code == 0
    assert out.strip() == "11/8"


def test_wp_loop_exit_code(capsys, geo_file):
    code, _, err = run(capsys, "wp", "--syntactic", "-p", geo_file, "-f", "x")
    assert code == 3
    assert "loop" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.pgcl"
    bad.write_text("x := := 1")
    code, _, err = run(capsys, "wp", "--syntactic", "-p", str(bad), "-f", "x")
    assert code == 2
    assert "parse error" in err


def test_fuel_exit_code(capsys, tmp_path):
    blow = tmp_path / "blow.pgcl"
    blow.write_text(
        "while (x < 50) { {y := y + 1} [1/2] {y := y + y + 2}; x := x + 1 }"
    )
    code, _, err = run(capsys, "forward", "-p", str(blow), "--at", "x=0",
                       "--fuel", "50", "--state-cap", "64")
    assert code == 4
    assert "cap" in err


def test_deep_program_exit_code(capsys, tmp_path):
    chain = tmp_path / "chain.pgcl"
    chain.write_text("; ".join(["x := x + 1"] * 2000))
    code, out, err = run(capsys, "wp", "--syntactic", "-p", str(chain), "-f", "x")
    assert code == 2
    assert out == ""
    assert err.startswith("error: input nested too deeply")
    assert len(err.splitlines()) == 1


def test_deep_sum_exit_code(capsys):
    exp = " + ".join(f"(sup v: [v < x] * {i})" for i in range(1500))
    code, out, err = run(capsys, "normalize", "--prenex", "-f", exp)
    assert code == 2
    assert out == ""
    assert err.startswith("error: input nested too deeply")
    assert len(err.splitlines()) == 1


def test_normalize_dnf_uses_reserved_cut(capsys):
    code, out, _ = run(capsys, "normalize", "--dnf", "-f", "x")
    assert code == 0
    assert "$cut" in out


def test_normalize_prenex(capsys):
    code, out, _ = run(capsys, "normalize", "--prenex", "-f", "(sup v: v) + 1")
    assert code == 0
    assert out.strip() == "sup v': v' + 1"


def test_normalize_snf_and_recover(capsys):
    from wpengine.normalform import dnf_recover, to_dnf
    from wpengine.parser import parse_exp
    from wpengine.syntax import print_exp

    code, out, _ = run(capsys, "normalize", "--snf", "-f", "x")
    assert code == 0
    assert out.strip() == "[true] * x"
    code, out, _ = run(capsys, "normalize", "--recover", "-f", "x + 1")
    assert code == 0
    assert out.strip() == print_exp(dnf_recover(to_dnf(parse_exp("x + 1"))))
    assert out.startswith("sup $cut: $cut * [")


def test_loop_free_program_where_a_loop_is_required(capsys, coin_file):
    code, _, err = run(capsys, "wp", "--kleene", "3", "-p", coin_file, "-f", "x")
    assert code == 3
    assert err.startswith("loop error:")
    code, _, err = run(capsys, "encode-loop", "--program", coin_file,
                       "--post", "x")
    assert code == 3
    assert err.startswith("loop error:")


def test_kleene_memo_cap_exit_code(capsys, geo_file):
    code, _, err = run(capsys, "wp", "--kleene", "50", "--state-cap", "3",
                       "--at", "c=1,x=0", "-p", geo_file, "-f", "x")
    assert code == 4
    assert "memo table reached 4 entries" in err


@pytest.mark.parametrize("text", [
    "while (x < 50) { x := x + 1 }",
    "while (c < 1) { c := 1; while (x < 50) { x := x + 1 } }",
])
def test_kleene_memo_cap_on_chains_and_nested_loops(capsys, tmp_path, text):
    loop = tmp_path / "loop.pgcl"
    loop.write_text(text)
    code, out, err = run(capsys, "wp", "--kleene", "60", "--state-cap", "5",
                         "--at", "x=0", "-p", str(loop), "-f", "x")
    assert code == 4
    assert out == ""
    assert "memo table reached 6 entries" in err


def test_long_statement_chain(capsys, tmp_path):
    chain = tmp_path / "chain.pgcl"
    chain.write_text("; ".join(["x := 1"] * 10**4))
    code, out, _ = run(capsys, "wp", "--syntactic", "-p", str(chain), "-f", "x")
    assert code == 0
    assert out == "1\n"


def test_long_statement_chain_forward(capsys, tmp_path):
    chain = tmp_path / "chain.pgcl"
    chain.write_text("; ".join(["x := 1"] * 10**4))
    code, out, _ = run(capsys, "forward", "-p", str(chain), "--at", "x=0", "--fuel", "1")
    assert code == 0
    assert out == "{'x': '1'} -> 1\nmass 1\n"


@pytest.mark.parametrize("exp, message", [
    (" + ".join(f"[x < {i}] * {i}" for i in range(17)),
     "17 summands exceed the 2^n cap of 16"),
    ("(sup v: v) * (sup w: w)",
     "only guards and arithmetic terms may multiply an expectation"),
])
def test_engine_errors_exit_2(capsys, exp, message):
    code, _, err = run(capsys, "normalize", "--dnf", "-f", exp)
    assert code == 2
    assert err.strip() == f"error: {message}"


def test_goedel_roundtrip(capsys):
    code, out, _ = run(capsys, "goedel", "encode-seq", "3,1,4")
    assert code == 0
    num = out.strip()
    assert num.isdigit()
    code, out, _ = run(capsys, "goedel", "decode-seq", num, "3")
    assert code == 0
    assert out.strip() == "3,1,4"


def test_series_harmonic(capsys):
    code, out, _ = run(capsys, "series", "sum", "--body", "1/$s", "--n", "3")
    assert code == 0
    assert out.strip() == "11/6"


def test_series_product(capsys):
    code, out, _ = run(capsys, "series", "product", "--body",
                       "[$p = 0] * 1 + [1 <= $p] * $p", "--n", "5")
    assert code == 0
    assert out.strip() == "120"


def test_encode_loop_values_json(capsys, geo_file):
    code, out, _ = run(capsys, "encode-loop", "--program", geo_file,
                       "--post", "x", "--eval-at", "c=1,x=0",
                       "--depth-k", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    values = {entry["k"]: entry["value"] for entry in payload["values"]}
    assert values == {0: "0", 1: "0", 2: "1/2", 3: "1", 4: "11/8"}


def test_encode_loop_readme_example(capsys, geo_file):
    code, out, _ = run(capsys, "encode-loop", "--program", geo_file,
                       "--post", "x", "--eval-at", "c=1,x=0", "--depth-k", "8")
    assert code == 0
    assert out == ("k=0: 0\nk=1: 0\nk=2: 1/2\nk=3: 1\nk=4: 11/8\nk=5: 13/8\n"
                   "k=6: 57/32\nk=7: 15/8\nk=8: 247/128\n")


def test_encode_loop_depth_zero(capsys, geo_file):
    code, out, _ = run(capsys, "encode-loop", "--program", geo_file,
                       "--post", "x", "--eval-at", "c=0,x=7", "--depth-k", "0")
    assert code == 0
    assert out == "k=0: 0\n"


def test_forward_json_schema(capsys, coin_file):
    code, out, _ = run(capsys, "forward", "-p", coin_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "entries": [
            {"state": {"x": "0"}, "weight": "1/3"},
            {"state": {"x": "1"}, "weight": "2/3"},
        ],
        "mass": "1",
    }


def test_check_suite_passes(capsys):
    code, out, _ = run(capsys, "check", "fo", "--seed", "5")
    assert code == 0
    assert "pass" in out


def test_check_deterministic_for_seed(capsys):
    _, first, _ = run(capsys, "check", "fo", "--seed", "9", "--format", "json")
    _, second, _ = run(capsys, "check", "fo", "--seed", "9", "--format", "json")
    assert first == second


def test_env_depth_override(capsys, coin_file, monkeypatch):
    monkeypatch.setenv("WPENGINE_DEPTH", "2")
    code, out, _ = run(capsys, "wp", "--syntactic", "-p", coin_file, "-f", "x")
    assert code == 0


def test_series_emit_pure(capsys):
    code, out, _ = run(capsys, "series", "sum", "--body", "1/$s", "--n", "2",
                       "--emit-pure")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3/2"
    assert lines[1].startswith("sup ")


def test_encode_loop_emit_pure_cap(capsys, geo_file):
    code, _, err = run(capsys, "encode-loop", "--program", geo_file,
                       "--post", "x", "--depth-k", "0", "--emit-pure",
                       "--max-pure-nodes", "1000")
    assert code == 4
    assert "max-pure-nodes" in err


@pytest.mark.parametrize("argv", [
    ["wp", "--kleene", "-1", "-p", "geo", "-f", "x"],
    ["wp", "--syntactic", "-p", "coin", "-f", "x", "--depth", "-1"],
    ["encode-loop", "--program", "geo", "--post", "x", "--depth-k", "-1"],
    ["forward", "-p", "geo", "--fuel", "-2"],
    ["forward", "-p", "geo", "--state-cap", "0"],
    ["series", "sum", "--body", "1/$s", "--n", "-1"],
    ["forward", "-p", "geo", "--iters", "3"],
    ["normalize", "--dnf", "-f", "x", "--seed", "1"],
])
def test_bad_counts_and_unread_flags_are_usage_errors(capsys, geo_file, coin_file,
                                                      argv):
    files = {"geo": geo_file, "coin": coin_file}
    with pytest.raises(SystemExit) as exc:
        main([files.get(arg, arg) for arg in argv])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_output_independent_of_hash_seed(coin_file):
    """The same commands print the same bytes under two hash seeds."""
    commands = [
        ["normalize", "--dnf", "-f", "x"],
        ["normalize", "--prenex", "-f", "1/x + 1/y"],
        ["series", "sum", "--body", "1/$s", "--n", "3", "--emit-pure"],
        ["wp", "--syntactic", "-p", coin_file, "-f", "x"],
    ]
    code = "import sys; from wpengine.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in commands:
        outs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                   "PYTHONHASHSEED": seed}
            done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                  capture_output=True, check=True)
            outs.append(done.stdout)
        assert outs[0] == outs[1] and outs[0], argv
