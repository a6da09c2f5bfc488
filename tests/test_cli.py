"""Command-line behavior, the JSON format, and its loader's validation."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import assemble_polynomial
from lrcodes.cli import _derived_doc, build_parser, load_spec_file, main, spec_to_dict, write_spec_file
from lrcodes.construction import build_code, validate_params
from lrcodes.errors import LrcError
from lrcodes.field import poly_eval, poly_from_roots
from lrcodes.verify import DEFAULT_BUDGET


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "code.json"
    write_spec_file(build_code(validate_params(13, 10, 5, 3)), path)
    return path


def test_params_valid(capsys):
    assert main(["params", "--q", "13", "--n", "10", "--k", "5", "--r", "3"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["d_predicted"] == 4
    assert doc["d_improved"] == 4
    assert doc["delta"] == 1
    assert doc["optimal"] is True


def test_params_s_equals_one(capsys):
    assert main(["params", "--q", "13", "--n", "9", "--k", "4", "--r", "3"]) == 2
    assert "s = 1 not supported" in capsys.readouterr().err


def test_params_rate_bound(capsys):
    assert main(["params", "--q", "13", "--n", "10", "--k", "8", "--r", "3"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_construct_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["construct", "--q", "13", "--n", "10", "--k", "5", "--r", "3",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_spec_file_schema(code_file):
    doc = json.loads(code_file.read_text())
    assert list(doc) == [
        "version", "q", "n", "k", "r", "s", "t", "m", "n_bar", "subgroup",
        "blocks", "B", "gamma", "g_tilde", "h_B", "eval_points", "generator_matrix",
    ]
    assert doc["version"] == 1
    assert doc["subgroup"] == {"kind": "multiplicative", "elements": [1, 5, 8, 12]}
    assert doc["B"] == [7, 9]
    assert doc["g_tilde"] == [4, 0, 0, 0, 1]
    assert doc["h_B"] == [11, 10, 1]


def test_load_round_trip(code_file):
    built = build_code(validate_params(13, 10, 5, 3))
    loaded = load_spec_file(code_file)
    assert spec_to_dict(loaded) == spec_to_dict(built)


def test_generator_matrix_is_one_read_only_array(code_file):
    built = build_code(validate_params(13, 10, 5, 3))
    rows = tuple(tuple(row) for row in built.G.tolist())
    for spec in (built, load_spec_file(code_file), replace(built, G=rows)):
        assert isinstance(spec.G, np.ndarray)
        assert spec.G.dtype == np.int64
        assert spec.G.shape == (5, 10)
        assert not spec.G.flags.writeable
        assert np.array_equal(spec.G, built.G)


def test_groups_survive_load_and_replace(code_file):
    # the code file stores no groups: loading rebuilds them, replace keeps them
    built = build_code(validate_params(13, 10, 5, 3))
    assert built.groups == ((0, 4, 6, 9), (1, 2, 7, 8), (3, 5))
    assert built.group_of == (0, 1, 1, 2, 0, 2, 0, 1, 1, 0)
    for spec in (load_spec_file(code_file), replace(built, G=built.G.tolist())):
        assert spec.groups == built.groups
        assert spec.group_of == built.group_of


# sha256 of construct output, fixed when the generator matrix was still
# built by assembling and evaluating one polynomial per row
GOLDEN = {
    (13, 10, 5, 3): "9bf416b4147f43dbc870fc802ce9c7ecfd41ae0f4a2913d48d50112bdaaf6527",
    (16, 14, 5, 3): "74627109c8bc42d85632eda3b4c1ae3ecb5ec56ec3ee16424613a102c4b7093a",
    (65536, 62, 40, 7): "64aa0ce300380c4b60b8e55d4c939e279c3df3f9420899d652be9ecd1dc7fc20",
}


@pytest.mark.parametrize("code", sorted(GOLDEN))
def test_construct_output_is_golden(tmp_path, capsys, code):
    path = tmp_path / "code.json"
    q, n, k, r = map(str, code)
    assert main(["construct", "--q", q, "--n", n, "--k", k, "--r", r, "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[code]
    assert spec_to_dict(load_spec_file(path)) == spec_to_dict(build_code(validate_params(*code)))


def test_load_rejects_corruption(tmp_path, code_file):
    def corrupted(mutate):
        doc = json.loads(code_file.read_text())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    cases = [
        lambda d: d.update(version=2),
        lambda d: d.update(s=3),
        lambda d: d["subgroup"]["elements"].reverse(),
        lambda d: d["subgroup"].update(elements=[1, 5, 8, 11]),
        lambda d: d["blocks"][1].__setitem__(0, 4),
        lambda d: d.update(B=[6, 9]),
        lambda d: d.update(h_B=[1, 10, 1]),
        lambda d: d.update(g_tilde=[5, 0, 0, 0, 1]),
        lambda d: d.update(eval_points=sorted(d["eval_points"], reverse=True)),
        lambda d: d["generator_matrix"].pop(),
    ]
    for mutate in cases:
        with pytest.raises(LrcError):
            load_spec_file(corrupted(mutate))


def test_load_refuses_another_valid_dropped_set(tmp_path, capsys):
    # B = {4, 6} is as valid a choice inside the last block (4, 6, 7, 9) as
    # construct's {7, 9}; with h_B, eval_points and G made consistent, the
    # file still differs from the rebuild and must not load
    spec = build_code(validate_params(13, 10, 5, 3))
    F = spec.field
    B = (4, 6)
    eval_points = tuple(sorted(set(x for b in spec.partition.blocks for x in b) - set(B)))
    other = replace(
        spec,
        partition=replace(spec.partition, B=B),
        h_B=tuple(poly_from_roots(F, B)),
        eval_points=eval_points,
    )
    G = []
    for row in range(5):
        f = assemble_polynomial([int(i == row) for i in range(5)], other)
        G.append(tuple(poly_eval(F, f, x) for x in eval_points))
    path = tmp_path / "other_b.json"
    write_spec_file(replace(other, G=tuple(G)), path)
    assert main(["encode", "--spec", str(path), "0", "0", "0", "0", "1"]) == 2
    assert "'B' does not match" in capsys.readouterr().err


def test_row_scaled_generator_round_trips_but_fails_verify(tmp_path, capsys, code_file):
    # encode and decode both use the stored G, so they agree with each
    # other; only verify's generator check sees that G left the construction
    doc = json.loads(code_file.read_text())
    doc["generator_matrix"][0] = [2 * x % 13 for x in doc["generator_matrix"][0]]
    bad = tmp_path / "scaled.json"
    bad.write_text(json.dumps(doc))
    assert main(["encode", "--spec", str(bad), "1", "0", "0", "0", "0"]) == 0
    word = capsys.readouterr().out.split()
    for i in (0, 4, 8):
        word[i] = "?"
    assert main(["decode", "--spec", str(bad), *word]) == 0
    assert capsys.readouterr().out.strip() == "1 0 0 0 0"
    assert main(["verify", "--spec", str(bad)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["generator_ok"] is False
    assert report["rank_ok"] is True
    assert report["all_ok"] is False


def test_load_rejects_json_booleans(tmp_path, code_file, capsys):
    # JSON true loads as a bool, which isinstance(..., int) would accept
    for mutate in (
        lambda d: d["generator_matrix"][0].__setitem__(0, True),
        lambda d: d["subgroup"]["elements"].__setitem__(0, True),
        lambda d: d.update(version=True),
    ):
        doc = json.loads(code_file.read_text())
        mutate(doc)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert "true" in path.read_text()
        with pytest.raises(LrcError):
            load_spec_file(path)
        assert main(["encode", "--spec", str(path), "0", "0", "0", "0", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "bad_row",
    [lambda row, x=x: row[:2] + [x] + row[3:] for x in (-1, 13, 2**70, 1.0, "1", [1], None, True)]
    + [lambda row: row[:-1], lambda row: "0" * len(row)],
    ids=["-1", "q", "2**70", "1.0", "'1'", "[1]", "null", "true", "short row", "non-list row"],
)
def test_load_refuses_a_bad_generator_row(capsys, tmp_path, code_file, bad_row):
    doc = json.loads(code_file.read_text())
    doc["generator_matrix"][1] = bad_row(doc["generator_matrix"][1])
    path = tmp_path / "bad_g.json"
    path.write_text(json.dumps(doc))
    assert main(["encode", "--spec", str(path), "0", "0", "0", "0", "1"]) == 2
    assert "generator matrix must be k rows of n field elements" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["lrcodes", "lrcodes.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", module, "bounds", "--n", "62", "--k", "40", "--r", "7"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rate_bound_holds"] is True


def test_encode_command(capsys, code_file):
    assert main(["encode", "--spec", str(code_file), "0", "0", "0", "0", "1"]) == 0
    assert capsys.readouterr().out.strip() == "9 9 11 2 8 3 12 3 8 2"


def test_encode_rejects_bad_symbols(capsys, code_file):
    assert main(["encode", "--spec", str(code_file), "0", "0", "0", "0", "13"]) == 2
    assert main(["encode", "--spec", str(code_file), "0", "0", "x", "0", "1"]) == 2
    assert main(["encode", "--spec", str(code_file), "1", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "token",
    ["1_0", "\u0661", "+1", "-0", "-1", " 1", "1.0"],
    ids=["underscore", "arabic-indic", "plus", "minus-zero", "negative", "space", "point"],
)
@pytest.mark.parametrize("command", ["encode", "decode"])
def test_symbols_are_ascii_decimal_digits(capsys, code_file, command, token):
    # int() takes underscores, signs, spaces and non-ASCII digits ("\u0661" is an Arabic-Indic 1)
    symbols = ["0"] * (5 if command == "encode" else 10)
    symbols[-1] = token
    assert main([command, "--spec", str(code_file), *symbols]) == 2
    assert f"symbol {token!r} is not a decimal integer" in capsys.readouterr().err


def test_encode_from_file(capsys, code_file, tmp_path):
    msg = tmp_path / "msg.txt"
    msg.write_text("0 0 0 0 1\n")
    assert main(["encode", "--spec", str(code_file), "--file", str(msg)]) == 0
    assert capsys.readouterr().out.strip() == "9 9 11 2 8 3 12 3 8 2"


def test_repair_command(capsys, code_file):
    word = "9 9 11 ? 8 3 12 3 8 2".split()
    assert main(["repair", "--spec", str(code_file), "--index", "4", *word]) == 0
    out = capsys.readouterr().out
    assert "repaired value: 2" in out
    assert "6=3" in out and "7=0" in out and "9=0" in out


@pytest.mark.parametrize("command", [["repair", "--index", "1"], ["decode"]], ids=["repair", "decode"])
def test_wrong_word_length_is_exit_2(capsys, code_file, command):
    assert main([command[0], "--spec", str(code_file), *command[1:], "?", "1", "2"]) == 2
    assert "received word length 3 != n = 10" in capsys.readouterr().err


def test_decode_command(capsys, code_file):
    word = "9 ? 11 2 ? 3 12 ? 8 2".split()
    assert main(["decode", "--spec", str(code_file), *word]) == 0
    assert capsys.readouterr().out.strip() == "0 0 0 0 1"


def test_decode_unrecoverable_exit(capsys, code_file):
    word = "? ? ? ? ? ? 12 3 8 2".split()
    assert main(["decode", "--spec", str(code_file), *word]) == 3
    capsys.readouterr()


def test_verify_command(capsys, code_file):
    assert main(["verify", "--spec", str(code_file)]) == 0
    assert capsys.readouterr().out == (
        "{\n"
        '  "rank_ok": true,\n'
        '  "generator_ok": true,\n'
        '  "distance_found": 4,\n'
        '  "distance_expected": 4,\n'
        '  "locality_ok": true,\n'
        '  "shortening_ok": true,\n'
        '  "erasure_ok": true,\n'
        '  "enumerated_words": 371292,\n'
        '  "all_ok": true\n'
        "}\n"
    )


def test_verify_detects_tampering(capsys, tmp_path, code_file):
    doc = json.loads(code_file.read_text())
    doc["generator_matrix"][1] = doc["generator_matrix"][0]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(bad)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["rank_ok"] is False
    assert report["generator_ok"] is False
    assert report["all_ok"] is False


def test_verify_budget_exit(capsys, code_file):
    assert main(["verify", "--spec", str(code_file), "--budget", "1000"]) == 2
    capsys.readouterr()


def test_one_default_budget():
    assert build_parser().parse_args(["verify", "--spec", "code.json"]).budget == DEFAULT_BUDGET
    assert DEFAULT_BUDGET == 5_000_000


def test_bounds_command(capsys):
    assert main(["bounds", "--n", "10", "--k", "5", "--r", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "n": 10, "k": 5, "r": 3,
        "d_singleton": 5, "d_improved": 4, "rate_bound_holds": True,
    }


@pytest.mark.parametrize(
    "n,k,r,message",
    [
        # r = 0 divided by zero in ceil(k / r); the others printed bounds
        # such as d_improved = -56 and exited 0
        ("10", "5", "0", "r must be a positive integer"),
        ("0", "0", "1", "n must be a positive integer"),
        ("-5", "2", "3", "n must be a positive integer"),
        ("10", "50", "3", "k = 50 exceeds the length n = 10"),
    ],
)
def test_bounds_refuses_invalid_input(capsys, n, k, r, message):
    assert main(["bounds", "--n", n, "--k", k, "--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_verify_has_no_seed(capsys, code_file):
    # every oracle is exact, so there is nothing to seed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--spec", str(code_file), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_params_refuses_a_huge_field_order_at_once(capsys):
    start = time.perf_counter()
    assert main(["params", "--q", str(10**18 + 3), "--n", "10", "--k", "5", "--r", "3"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds 2^16" in capsys.readouterr().err


def test_construct_refuses_a_huge_generator_at_once(capsys, tmp_path):
    out = tmp_path / "huge.json"
    args = ["construct", "--q", "65536", "--n", "65534", "--k", "30000", "--r", "15"]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert main(args + ["--out", str(out)]) == 2
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "repair", "decode", "verify"])
def test_code_file_with_a_huge_field_order_is_exit_2(capsys, tmp_path, code_file, command):
    doc = json.loads(code_file.read_text())
    doc["q"] = 10**18 + 3
    path = tmp_path / "huge_q.json"
    path.write_text(json.dumps(doc))
    symbols = {"encode": ["1"] * 5, "repair": ["--index", "1"] + ["1"] * 10,
               "decode": ["1"] * 10, "verify": []}[command]
    start = time.perf_counter()
    assert main([command, "--spec", str(path)] + symbols) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds 2^16" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "verify"])
def test_deeply_nested_code_file_is_exit_2(capsys, tmp_path, command):
    # json.loads raises RecursionError here, which is no LrcError
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    symbols = ["1"] * 5 if command == "encode" else []
    assert main([command, "--spec", str(path)] + symbols) == 2
    assert "bad code file: JSON nested too deeply" in capsys.readouterr().err


def test_missing_file_is_exit_2(capsys, tmp_path):
    assert main(["encode", "--spec", str(tmp_path / "nope.json"), "1"]) == 2
    capsys.readouterr()


def test_spec_to_dict_and_write_are_stable(tmp_path):
    spec = build_code(validate_params(16, 10, 5, 3))
    d1 = spec_to_dict(spec)
    d2 = spec_to_dict(build_code(validate_params(16, 10, 5, 3)))
    assert d1 == d2
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    write_spec_file(spec, p1)
    write_spec_file(spec, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_spec_to_dict_is_the_derived_fields_then_g():
    spec = build_code(validate_params(16, 14, 5, 3))
    doc = spec_to_dict(spec)
    assert list(doc) == [*_derived_doc(spec), "generator_matrix"]
    assert doc == {**_derived_doc(spec), "generator_matrix": spec.G.tolist()}
