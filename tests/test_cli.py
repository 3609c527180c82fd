import hashlib
import io
import json
import time

import pytest

from dlogsidon import basis as basis_mod
from dlogsidon import cli
from dlogsidon.arith import INTEGERS, is_primitive_root
from dlogsidon.blocks import const_window
from dlogsidon.cli import main


def run_cli(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def run_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_finite_prime_modulus(capsys):
    rc, out, err = run_cli(capsys, ["finite", "--q", "101"])
    assert rc == 0
    assert json.loads(out) == {
        "q": 101, "g": 2, "modulus": 100, "size": 4,
        "residues": [1, 9, 24, 69], "sidon": True,
    }
    run_usage_error(capsys, ["finite", "--q", "100"])
    rc, out, err = run_cli(capsys, ["finite", "--q", "101", "--g", "3"])
    assert rc == 0 and json.loads(out)["g"] == 3
    # 2 has order 11 mod 23: it generates half of the group.
    err = run_usage_error(capsys, ["finite", "--q", "23", "--g", "2"])
    assert "not a primitive root" in err
    run_usage_error(capsys, ["finite", "--q", "23", "--g", "0"])


@pytest.mark.parametrize("q, doc", [
    ("2", '{"g":1,"modulus":1,"q":2,"residues":[],"sidon":true,"size":0}\n'),
    ("3", '{"g":2,"modulus":2,"q":3,"residues":[],"sidon":true,"size":0}\n'),
])
def test_finite_smallest_moduli_give_empty_sets(capsys, q, doc):
    # No prime p has p^2 < 2 or p^2 < 3: the set is empty, and Sidon.
    assert run_cli(capsys, ["finite", "--q", q]) == (0, doc, "")


def test_finite_tests_only_a_given_generator(capsys, monkeypatch):
    # The least generator needs no second test; a --g does.
    calls = []
    monkeypatch.setattr(cli, "is_primitive_root",
                        lambda g, q: calls.append((g, q)) or is_primitive_root(g, q))
    assert run_cli(capsys, ["finite", "--q", "101"])[0] == 0
    assert calls == []
    assert run_cli(capsys, ["finite", "--q", "101", "--g", "3"])[0] == 0
    assert calls == [(3, 101)]


def test_finite_past_the_baby_step_limit_is_an_error(capsys):
    # The least prime above 2^38 needs 2^20 + 2 baby steps: it refuses at
    # once, before any table is built. Degree 39 over GF(2) refuses on its
    # degree first (its 1,482,912 baby steps are pinned in test_gf2x).
    for argv, reason in ((["finite", "--q", "274877906951"], "baby steps"),
                         (["gf2", "finite", "--n", "39", "--q", "8000000011"], "degree 39")):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1
        assert rc == 1 and out == ""
        assert err.startswith("error:") and reason in err


def test_finite_past_the_audit_limit_refuses_before_any_log(capsys):
    # The largest prime below 2^38 passes the baby-step limit, but its 43,390
    # residues would take C(43391, 2) = 9.4e8 keys in the one bucket of their
    # audit mod q - 1: it refuses before the first of 43,390 logs.
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, ["finite", "--q", "274877906899"])
    assert time.perf_counter() - start < 2
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "in one bucket" in err and "audit limit" in err


@pytest.mark.parametrize("argv", [["basis"], ["generate"], ["prune"], ["bh", "generate"],
                                  ["bh", "montecarlo"], ["audit"], ["count"], ["finite"],
                                  ["gf2", "finite"], ["gf2", "generate"]])
def test_every_subcommand_has_help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: dlogsidon {' '.join(argv)} ")


def test_a_subcommand_is_required(capsys):
    assert "required: command" in run_usage_error(capsys, [])
    assert "required: sub" in run_usage_error(capsys, ["gf2"])


def test_gf2_finite_with_a_modulus_keeps_the_degree_bound(capsys):
    # X^30 + X + 1 is irreducible, but degree 30 is past the bound of 24,
    # given --q or not: about 2,500 BSGS logs would run for minutes.
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, ["gf2", "finite", "--n", "30", "--q", "40000003"])
    assert time.perf_counter() - start < 1
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "degree 30" in err


def test_generate_small_prefix(capsys):
    rc, out, err = run_cli(capsys, ["generate", "--kmax", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[:3] == [
        '{"a":"13784669","digits":[5,14,59,176],"k":4,"p":5}',
        '{"a":"17696656","digits":[4,17,68,226],"k":4,"p":7}',
        '{"a":"20434385","digits":[5,21,73,261],"k":4,"p":2}',
    ]
    summary = json.loads(lines[3])
    assert summary["excluded"] == [{"basis_index": 1, "k": 4, "p": 3}]
    assert summary["blocks"][-1]["block_size"] == 4

    # identical flags, identical bytes
    rc2, out2, _ = run_cli(capsys, ["generate", "--kmax", "4"])
    assert rc2 == 0 and out2 == out


def test_generate_to_files(capsys, tmp_path):
    elems = tmp_path / "elements.jsonl"
    summary = tmp_path / "summary.json"
    rc, out, err = run_cli(capsys, [
        "generate", "--kmax", "4", "--out", str(elems), "--summary", str(summary)])
    assert rc == 0 and out == ""
    assert len(elems.read_text().splitlines()) == 3
    assert json.loads(summary.read_text())["k_max"] == 4


def test_window_constant_flag(capsys):
    assert cli.parse_constant("bh:3") == const_window(3)
    assert "need h >= 2" in run_usage_error(capsys, ["generate", "--kmax", "4", "--c", "bh:1"])
    assert "'bh:x'" in run_usage_error(capsys, ["generate", "--kmax", "4", "--c", "bh:x"])


def test_generate_flag_validation(capsys):
    run_usage_error(capsys, ["generate", "--kmax", "4", "--precision", "64"])
    run_usage_error(capsys, ["generate", "--kmax", "4", "--c", "0.7"])
    run_usage_error(capsys, ["generate", "--kmax", "4", "--c", "sqrt3"])
    run_usage_error(capsys, ["generate", "--kmax", "4", "--basis", "random"])


def test_prune_default_run(capsys):
    rc, out, err = run_cli(capsys, ["prune", "--kmax", "5"])
    assert rc == 0
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["kept"] == 34 and len(lines) == 35
    assert summary["bad_total"] == 0
    assert summary["c"] == "sqrt2"
    assert all(row["ratio"] == 0.0 for row in summary["blocks"])


def test_prune_writes_bad_records_file(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    rc, out, err = run_cli(capsys, [
        "prune", "--kmax", "5", "--bad-out", str(bad),
        "--out", str(tmp_path / "kept.jsonl"), "--summary", str(tmp_path / "s.json")])
    assert rc == 0
    assert bad.read_text() == ""  # no bad primes on the default basis


def test_audit_clean_and_planted(capsys, tmp_path):
    elems = tmp_path / "elements.jsonl"
    run_cli(capsys, ["generate", "--kmax", "4", "--out", str(elems),
                     "--summary", str(tmp_path / "s.json")])
    rc, out, err = run_cli(capsys, ["audit", "--input", str(elems)])
    assert rc == 0 and out == ""

    planted = tmp_path / "planted.jsonl"
    planted.write_text("3\n1\n0\n2\n")
    rc, out, err = run_cli(capsys, ["audit", "--input", str(planted)])
    assert rc == 1
    assert out.splitlines() == ['{"l":2,"left":["2","0"],"right":["1","1"],"sum":"2"}',
                                '{"l":2,"left":["3","0"],"right":["2","1"],"sum":"3"}',
                                '{"l":2,"left":["3","1"],"right":["2","2"],"sum":"4"}']
    assert "3 collision report(s)" in err

    rc, out, err = run_cli(capsys, ["audit", "--input", str(planted),
                                    "--allow-collisions"])
    assert rc == 0
    assert len(out.splitlines()) == 3


def test_audit_methods_and_modulus(capsys, tmp_path):
    planted = tmp_path / "planted.jsonl"
    planted.write_text("0\n1\n2\n3\n")
    # The engine is the only search; its brute-force oracle is not a flag.
    run_usage_error(capsys, ["audit", "--input", str(planted), "--method", "brute"])

    rc, out, err = run_cli(capsys, ["audit", "--input", str(planted),
                                    "--allow-collisions", "--modulus", "3"])
    assert rc == 0
    assert out.splitlines() == ['{"l":2,"left":["2","1"],"right":["0","0"],"sum":"0"}',
                                '{"l":2,"left":["3","0"],"right":["2","1"],"sum":"0"}',
                                '{"l":2,"left":["3","3"],"right":["0","0"],"sum":"0"}',
                                '{"l":2,"left":["3","3"],"right":["2","1"],"sum":"0"}',
                                '{"l":2,"left":["2","2"],"right":["1","0"],"sum":"1"}',
                                '{"l":2,"left":["3","1"],"right":["2","2"],"sum":"1"}',
                                '{"l":2,"left":["2","0"],"right":["1","1"],"sum":"2"}',
                                '{"l":2,"left":["3","2"],"right":["1","1"],"sum":"2"}']

    run_usage_error(capsys, ["audit", "--input", str(planted), "--l", "1"])
    rc, out, err = run_cli(capsys, ["audit", "--input", str(tmp_path / "missing.jsonl")])
    assert rc == 1 and err.startswith("error:")


def test_audit_reads_integers_and_decimal_strings(capsys, tmp_path):
    values = tmp_path / "values.jsonl"
    values.write_text('3\n"1"\n{"a": 0}\n\n{"a": "2", "k": 2}\n"-7"\n')
    rc, out, err = run_cli(capsys, ["audit", "--input", str(values), "--allow-collisions"])
    assert rc == 0 and err == ""
    assert len(out.splitlines()) == 3  # the planted 0..3 collisions; -7 adds none


# A float is inexact (and big ones are already rounded by the JSON reader),
# a boolean is not a number, and the rest hold no value at all.
@pytest.mark.parametrize("line", [
    "2.7", "true", '{"a": 12345678901234567891.0}', '{"p": 3}', "[1, 2]", "null",
    '"1_000"', '{"a": true}', "{", '" 12"',
])
def test_audit_refuses_a_line_without_an_exact_integer(capsys, tmp_path, line):
    values = tmp_path / "values.jsonl"
    values.write_text(f"1\n{line}\n3\n")
    rc, out, err = run_cli(capsys, ["audit", "--input", str(values)])
    assert rc == 1 and out == ""
    assert err.startswith("error: --input line 2:") and "Traceback" not in err


def test_audit_modulus_below_one_is_a_usage_error(capsys, tmp_path):
    values = tmp_path / "values.jsonl"
    values.write_text("1\n2\n")
    for modulus in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--input", str(values), "--modulus", modulus])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "--modulus: must be >= 1" in err, modulus


def test_audit_too_large_is_an_error(capsys, tmp_path):
    # C(6000, 3) is above the engine's work limit, and 23,200 values mod a
    # modulus (one bucket) above its memory limit; both must refuse, not
    # allocate.
    wide = tmp_path / "wide.jsonl"
    wide.write_text("".join(f"{v}\n" for v in range(6000)))
    rc, out, err = run_cli(capsys, ["audit", "--input", str(wide), "--l", "3"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "audit limit" in err
    wide.write_text("".join(f"{v}\n" for v in range(23_200)))
    rc, out, err = run_cli(capsys, ["audit", "--input", str(wide), "--modulus", str(1 << 40)])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "audit limit" in err


def test_audit_small_modulus_is_an_error(capsys, tmp_path):
    # Mod 3, 200 values share their pair sums in 6.6e7 ways; the audit must
    # refuse instead of writing that many reports.
    values = tmp_path / "values.jsonl"
    values.write_text("".join(f"{v}\n" for v in range(200)))
    rc, out, err = run_cli(capsys, ["audit", "--input", str(values), "--modulus", "3"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "report limit" in err


def test_audit_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n3\n4\n"))
    rc, out, err = run_cli(capsys, ["audit", "--input", "-", "--allow-collisions"])
    assert rc == 0
    assert out.splitlines() == ['{"l":2,"left":["3","1"],"right":["2","2"],"sum":"4"}',
                                '{"l":2,"left":["4","1"],"right":["3","2"],"sum":"5"}',
                                '{"l":2,"left":["4","2"],"right":["3","3"],"sum":"6"}']


def test_count_and_brackets(capsys):
    rc, out, err = run_cli(capsys, ["count", "--kmax", "4", "--x", "20000000"])
    assert rc == 0
    assert json.loads(out) == {"x": "20000000", "count": 2, "k_max": 4}

    rc, out, err = run_cli(capsys, ["count", "--kmax", "4", "--x", "20000000",
                                    "--brackets"])
    assert rc == 0
    rows = json.loads(out)["brackets"]
    assert [row["k"] for row in rows] == [2, 3, 4]
    assert all(row["count_ok"] and row["elements_ok"] for row in rows)

    # x beyond the covered range is a runtime failure, not a usage error
    rc, out, err = run_cli(capsys, ["count", "--kmax", "4", "--x", "50000000"])
    assert rc == 1 and err.startswith("error:")


def test_basis_document_and_reuse(capsys, tmp_path):
    rc, out, err = run_cli(capsys, ["basis", "--count", "4"])
    assert rc == 0
    assert json.loads(out) == {
        "scale": 4,
        "entries": [{"j": 1, "q": 3, "g": 2}, {"j": 2, "q": 11, "g": 2},
                    {"j": 3, "q": 37, "g": 2}, {"j": 4, "q": 131, "g": 2}],
    }
    doc = tmp_path / "basis.json"
    doc.write_text(out)

    plain = run_cli(capsys, ["generate", "--kmax", "4"])[1]
    reused = run_cli(capsys, ["generate", "--kmax", "4", "--basis-file", str(doc)])[1]
    assert reused == plain

    # scale 4 document cannot drive an h = 3 run
    run_usage_error(capsys, ["bh", "generate", "--kmax", "5",
                             "--basis-file", str(doc)])


def test_scale_9_basis_document_drives_a_b3_run(capsys, tmp_path):
    rc, out, err = run_cli(capsys, ["basis", "--scale", "9", "--count", "5"])
    assert rc == 0 and json.loads(out)["scale"] == 9
    doc = tmp_path / "basis.json"
    doc.write_text(out)
    plain = run_cli(capsys, ["bh", "generate", "--h", "3", "--kmax", "5"])
    reused = run_cli(capsys, ["bh", "generate", "--h", "3", "--kmax", "5",
                              "--basis-file", str(doc)])
    assert reused == plain and plain[0] == 0


@pytest.mark.parametrize("doc, field", [
    ({"scale": 4}, "entries"),
    ({"scale": 4, "entries": [{"j": 1, "q": 3}]}, "entries[0].g"),
    ([{"j": 1, "q": 3, "g": 2}], "scale"),
    ({"scale": 4, "entries": [{"j": 1, "q": "3", "g": 2}]}, "entries[0].q"),
    ({"scale": 4, "entries": {"j": 1, "q": 3, "g": 2}}, "entries"),
    ({"scale": 4, "entries": [[1, 3, 2]]}, "entries[0].j"),
    ({"scale": 4.0, "entries": []}, "scale"),
])
def test_malformed_basis_document_is_an_error(capsys, tmp_path, doc, field):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, ["generate", "--kmax", "2", "--basis-file", str(path)])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and f"{field} is missing" in err and "Traceback" not in err


def test_basis_random_seeded(capsys):
    run_usage_error(capsys, ["basis", "--count", "3", "--basis", "random"])
    a = run_cli(capsys, ["basis", "--count", "3", "--basis", "random", "--seed", "9"])[1]
    b = run_cli(capsys, ["basis", "--count", "3", "--basis", "random", "--seed", "9"])[1]
    c = run_cli(capsys, ["basis", "--count", "3", "--basis", "random", "--seed", "10"])[1]
    assert a == b and a != c
    for entry in json.loads(a)["entries"]:
        lo, hi = 1 << (2 * entry["j"] - 1), 1 << (2 * entry["j"] + 1)
        assert lo < entry["q"] <= hi


def test_bh_generate_small(capsys):
    rc, out, err = run_cli(capsys, ["bh", "generate", "--kmax", "5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == '{"a":"1425485822758","digits":[7,31,109,391,1358],"k":5,"p":2}'
    summary = json.loads(lines[1])
    assert summary["h"] == 3 and summary["removed"] == []
    assert summary["negative_taper_blocks"] == [2]

    raw = run_cli(capsys, ["bh", "generate", "--kmax", "5", "--raw"])[1]
    assert raw.splitlines()[0] == lines[0]


def test_bh_generate_through_max_index(capsys, tmp_path):
    # MAX_INDEX = 13: block 13 of the B_3 law needs q_13 from (2^25, 2^27].
    summary = tmp_path / "summary.json"
    rc, out, err = run_cli(capsys, ["bh", "generate", "--h", "3", "--kmax", "13", "--raw",
                                    "--summary", str(summary)])
    assert rc == 0 and err == ""
    doc = json.loads(summary.read_text())
    blocks = doc["blocks"]
    assert [b["k"] for b in blocks] == list(range(3, 14))
    n = len(out.splitlines())
    assert n == 3473 == sum(b["block_size"] - b["excluded"] for b in blocks)


@pytest.mark.slow
def test_random_basis_b3_k13_elements_are_pinned(tmp_path):
    # 3,473 elements over a random basis up to q_13 < 2^27: most digits by
    # BSGS, eleven log tables of 6.8e6 entries in all (the largest mod
    # 5,825,503), and the j = 13 window pool sieved from 1.0e8 integers.
    # About 3 s on a 2-core VM.
    out = tmp_path / "elements.jsonl"
    t0 = time.perf_counter()
    rc = main(["bh", "generate", "--h", "3", "--kmax", "13", "--raw", "--basis", "random",
               "--seed", "3", "--out", str(out), "--summary", str(tmp_path / "summary.json")])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "d47a4f48f561b66a932f18f13d68548b06c6f5b7e07c105e660ddb9ccce16080")
    assert elapsed < 15.0, elapsed


@pytest.mark.parametrize("argv", [
    ["generate", "--c", "sqrt5", "--kmax", "9"],
    ["generate", "--c", "sqrt5", "--kmax", "10"],
    ["prune", "--c", "sqrt2", "--kmax", "9"],
    ["count", "--c", "sqrt5", "--kmax", "9", "--x", "1000"],
])
def test_block_past_the_sieve_limit_is_an_error(capsys, argv):
    # sqrt5 block 9 spans 2.5e8 integers, sqrt2 block 9 1.6e9: above 2^27.
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1 and out == "" and err.startswith("error:") and "2^27" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--kmax", "13", "--basis", "random", "--seed", "1"],
    ["generate", "--kmax", "14", "--basis", "random", "--seed", "1"],
    ["count", "--x", "1000", "--kmax", "13", "--basis", "random", "--seed", "1"],
])
def test_random_basis_refuses_at_block_9_before_drawing_an_entry(capsys, monkeypatch, argv):
    # Drawing entries 1..13 first would sieve every window pool, j = 13's
    # 1.0e8 integers among them, and entry 14 is past MAX_INDEX; the block
    # check comes first and names sqrt5 block 9's interval.
    def refuse(j):
        raise AssertionError(f"window pool {j} sieved before the blocks were checked")

    monkeypatch.setattr(basis_mod, "_window_pool", refuse)
    rc, out, err = run_cli(capsys, argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: sieving (2856515, 257366120]") and "2^27" in err


def test_gf2_generation_refuses_at_the_first_block_past_the_degree_bound(capsys):
    # Block 9 of the sqrt5 law at offset 0 reaches degree 30; the edges of
    # the blocks after it, up to about 3.4e6 bits wide at k = 3000, are never
    # worked out.
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, ["gf2", "generate", "--kmax", "3000"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1 and out == "" and err.startswith("error:") and "degree 30" in err


def test_bh_montecarlo_deterministic(capsys):
    argv = ["bh", "montecarlo", "--kmax", "4", "--trials", "2", "--seed", "7"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    assert doc["h"] == 3 and doc["trials"] == 2 and doc["seed"] == 7
    assert len(doc["per_trial"]) == 2
    assert [row["k"] for row in doc["per_k"]] == [3, 4]
    assert run_cli(capsys, argv)[1] == out


@pytest.mark.parametrize("argv", [
    ["bh", "montecarlo", "--kmax", "4", "--trials", "-1", "--seed", "7"],
    ["bh", "montecarlo", "--kmax", "4", "--trials", "0", "--seed", "7"],
    ["basis", "--count", "-1"],
    ["basis", "--count", "0"],
])
def test_counts_below_one_are_usage_errors(capsys, argv):
    assert "must be >= 1" in run_usage_error(capsys, argv)


@pytest.mark.parametrize("argv, message", [
    (["generate", "--kmax", "1"], "below the first block 2"),
    (["prune", "--kmax", "1"], "below the first block 2"),
    (["count", "--kmax", "1", "--x", "5"], "below the first block 2"),
    (["gf2", "generate", "--kmax", "1"], "below the first block 2"),
    (["bh", "generate", "--kmax", "2"], "below the first block 3"),
    (["bh", "montecarlo", "--h", "3", "--kmax", "2", "--trials", "1", "--seed", "1"],
     "below the first block 3"),
    (["bh", "generate", "--h", "2", "--kmax", "4"], "--h must be >= 3"),
    (["bh", "montecarlo", "--h", "1", "--kmax", "4", "--trials", "1", "--seed", "1"],
     "--h must be >= 3"),
    (["basis", "--scale", "5", "--count", "2"], "must be the square of an integer >= 2"),
    (["basis", "--scale", "1", "--count", "2"], "must be the square of an integer >= 2"),
    # Checked before generation: pruned_generate would refuse it only after
    # listing every block of the k <= 8 prefix.
    (["prune", "--c", "sqrt5", "--kmax", "8"], "pruning needs c above (3 - sqrt 5)/2"),
])
def test_bad_law_values_are_usage_errors(capsys, monkeypatch, argv, message):
    def no_listing(lo, hi):
        raise AssertionError(f"a usage error listed the block ({lo}, {hi}]")

    monkeypatch.setattr(INTEGERS, "irreducibles", no_listing)
    assert message in run_usage_error(capsys, argv)


# The working precision, the law's offset and first block, the digit window
# order of a Sidon run and the prune slack each have one value; none is a flag.
@pytest.mark.parametrize("argv", [
    *([*cmd, "--precision", "256"] for cmd in (
        ["generate", "--kmax", "4"], ["prune", "--kmax", "4"],
        ["bh", "generate", "--kmax", "5"],
        ["bh", "montecarlo", "--kmax", "4", "--trials", "1", "--seed", "1"],
        ["count", "--kmax", "4", "--x", "1"], ["gf2", "generate", "--kmax", "3"])),
    *([*cmd, flag, "2"] for cmd in (
        ["generate", "--kmax", "4"], ["prune", "--kmax", "4"],
        ["count", "--kmax", "4", "--x", "1"]) for flag in ("--offset", "--kmin")),
    ["generate", "--kmax", "4", "--h", "3"],
    ["count", "--kmax", "4", "--x", "1", "--h", "3"],
    ["prune", "--kmax", "4", "--slack", "0.2"],
])
def test_removed_flags_are_unrecognized(capsys, argv):
    assert "unrecognized arguments" in run_usage_error(capsys, argv)


def test_gf2_subcommands(capsys):
    rc, out, err = run_cli(capsys, ["gf2", "finite", "--n", "7"])
    assert rc == 0
    assert json.loads(out) == {
        "n": 7, "q": "83", "modulus": 127, "size": 5,
        "residues": [1, 7, 31, 56, 90], "sidon": True,
    }
    run_usage_error(capsys, ["gf2", "finite", "--n", "2"])
    rc, out, err = run_cli(capsys, ["gf2", "finite", "--n", "7", "--q", "83"])
    assert rc == 0 and json.loads(out)["q"] == "83"
    # Not hex; X + 1, of degree 1; X^7 + 1 = (X + 1)(X^6 + ... + 1), reducible;
    # a negative number, which int() accepts as hex.
    err = run_usage_error(capsys, ["gf2", "finite", "--n", "7", "--q", "zz"])
    assert "not a hex bit pattern" in err
    for q in ("3", "81", "-83"):
        err = run_usage_error(capsys, ["gf2", "finite", "--n", "7", "--q", q])
        assert "not an irreducible polynomial of degree 7" in err
    rc, out, err = run_cli(capsys, ["gf2", "finite", "--n", "20"])
    doc = json.loads(out)
    assert rc == 0 and doc["sidon"] is True
    # One residue per irreducible of degree 1..9, modulo X^20 + X^3 + 1.
    assert doc["q"] == "100009" and doc["size"] == 127
    rc, out, err = run_cli(capsys, ["gf2", "finite", "--n", "25"])
    assert rc == 1 and out == "" and "degree 25" in err

    rc, out, err = run_cli(capsys, ["gf2", "generate", "--kmax", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert lines[0] == '{"a":"83","digits":[3,10],"k":2,"p":"3"}'
    summary = json.loads(lines[-1])
    assert summary["excluded"] == [
        {"basis_index": 1, "k": 2, "p": "2"},
        {"basis_index": 2, "k": 3, "p": "b"},
        {"basis_index": 3, "k": 4, "p": "25"},
    ]
    assert summary["blocks"] == [{"k": 2, "block_size": 2}, {"k": 3, "block_size": 3},
                                 {"k": 4, "block_size": 18}]
