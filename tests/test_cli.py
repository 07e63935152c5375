import json
import os
import subprocess
import sys
import time

import circulant
from circulant import cli, coeff_engine, expansion, oracles, symmetry
from circulant.coeff_engine import indices_from_multiplicities
from circulant.expansion import ExpansionPolynomial
from circulant.symmetry import valid_vectors


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coeff_plain(capsys):
    code, out = run(capsys, "coeff", "5", "0,0,1,2,2")
    assert code == 0
    assert out.strip() == "5"


def test_coeff_json_fields(capsys):
    code, out = run(capsys, "coeff", "10", "0,0,1,1,1,1,3,7,8,8",
                    "--format", "json", "--check")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "200"
    assert doc["oracle"] == "200"
    assert doc["path"] == "partition-sum"
    assert doc["representative"]["indices"] == [0, 0, 0, 0, 1, 1, 3, 3, 4, 8]
    assert doc["representative"]["sign"] == -1


def test_coeff_mult_form(capsys):
    code, out = run(capsys, "coeff", "6", "2,3,0,1,0,0", "--mult")
    assert code == 0
    assert out.strip() == "-6"


def test_coeff_usage_errors(capsys):
    assert run(capsys, "coeff", "5", "0,0,1,2")[0] == 2
    assert run(capsys, "coeff", "5", "0,0,1,2,9")[0] == 2
    assert run(capsys, "coeff", "5", "0,0,1,x,2")[0] == 2
    assert run(capsys, "coeff", "5", "2,3,0,1,0,0", "--mult")[0] == 2


def test_coeff_check_refused_above_window(capsys):
    # the arrangement-counting oracle would walk 12!/2 orderings here
    t0 = time.time()
    assert run(capsys, "coeff", "12", "0,0,1,2,3,4,5,7,8,9,10,11", "--check")[0] == 2
    assert time.time() - t0 < 5.0


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 2


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one main call, argparse exits included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_reused_parser_matches_fresh_calls(capsys, monkeypatch):
    calls = [
        ["coeff", "10", "0,0,1,1,1,1,3,7,8,8", "--format", "json", "--check"],
        ["coeff", "10", "0,0,1,1,1,1,3,7,8,8", "--format", "json"],
        ["expand", "5", "--include-zeros", "--format", "csv"],
        ["expand", "5"],
        ["coeff", "5"],  # argparse usage error
        ["coeff", "5", "0,0,1,2,2"],
        ["coeff", "5", "0,0,1,2,9"],  # UsageError
        ["zeros", "6", "--format", "json"],
        ["coeff", "--help"],
        [],
        ["verify", "3..4", "--suite", "lemmas"],
        ["coeff", "6", "2,3,0,1,0,0", "--mult", "--format", "json"],
    ]
    alone = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(_call(capsys, argv))
    builds = [0]
    original = cli.build_parser

    def counting():
        builds[0] += 1
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    for argv, want in zip(calls, alone):
        assert _call(capsys, argv) == want, argv
    assert builds[0] == 1


def test_coeff_reduces_once(capsys, monkeypatch):
    calls = [0]
    original = coeff_engine.reduce_representative

    def counting(a):
        calls[0] += 1
        return original(a)

    # partition sum at N = 16, then the residue-gate and all-equal paths,
    # which report the same representative as the partition-sum path would
    for n, text, path in ((16, "0,0,0,0,0,0,0,1,1,1,2,5,5,9,12,12", "partition-sum"),
                          (5, "0,0,1,2,3", "residue-gate"), (4, "2,2,2,2", "all-equal")):
        monkeypatch.setattr(coeff_engine, "reduce_representative", counting)
        calls[0] = 0
        code, out = run(capsys, "coeff", str(n), text, "--format", "json")
        assert code == 0 and calls[0] == 1, (n, text, calls[0])
        monkeypatch.setattr(coeff_engine, "reduce_representative", original)
        rep, sign = original([int(t) for t in text.split(",")])
        doc = json.loads(out)
        assert doc["path"] == path
        assert doc["representative"] == {"indices": list(rep), "sign": sign}


def test_expand_json_round_trip(capsys):
    for n in range(2, 9):
        code, out = run(capsys, "expand", str(n), "--format", "json")
        assert code == 0
        line = out.strip()
        assert json.dumps(json.loads(line), separators=(",", ":")) == line
        doc = json.loads(line)
        assert doc["N"] == n
        keys = [tuple(t["M"]) for t in doc["terms"]]
        assert keys == sorted(keys)
        want = ExpansionPolynomial(n, oracles.leibniz_expansion(n))
        assert line == cli.poly_to_json(want), n


def test_expand_text_groups_by_partition(capsys):
    code, out = run(capsys, "expand", "4")
    assert code == 0
    assert "partition 4" in out
    assert "partition 2.1.1" in out
    assert "C*_1210 = 4" in out


def test_expand_include_zeros(capsys):
    _, with_zeros = run(capsys, "expand", "6", "--format", "csv", "--include-zeros")
    _, without = run(capsys, "expand", "6", "--format", "csv")
    assert len(with_zeros.splitlines()) == len(without.splitlines()) + 12


def test_expand_range_check(capsys):
    assert run(capsys, "expand", "99")[0] == 2
    assert run(capsys, "expand", "13")[0] == 2


def test_multiplets_output(capsys):
    code, out = run(capsys, "multiplets", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    supers = [r for r in doc["multiplets"] if r["kind"] == "super"]
    assert len(supers) == 4
    assert doc["footer"]["F"] == 26
    assert doc["footer"]["additive_total"] == 6
    assert doc["footer"]["super_closed_form"] == 4


def test_multiplets_values_match_leibniz(capsys):
    for n in range(3, 9):
        code, out = run(capsys, "multiplets", str(n), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        leib = oracles.leibniz_expansion(n)
        for row in doc["multiplets"]:
            rep = tuple(int(c) for c in row["representative"])
            assert int(row["value"]) == leib.get(rep, 0), (n, row)
        for kind in ("additive", "super"):
            sizes = [row["n"] for row in doc["multiplets"] if row["kind"] == kind]
            assert sum(sizes) == doc["footer"]["F"], (n, kind)


def test_one_evaluation_per_super_orbit(capsys, monkeypatch):
    # N = 8 has 49 super orbits; neither command evaluates more than that.
    # The structural zeros of N = 10 fill 3 super orbits.
    calls = [0]
    original = coeff_engine.coeff_theorem3

    def counting(a):
        calls[0] += 1
        return original(a)

    monkeypatch.setattr(coeff_engine, "coeff_theorem3", counting)
    for command in ("multiplets", "expand"):
        expansion._expand_cached.cache_clear()
        calls[0] = 0
        assert run(capsys, command, "8")[0] == 0
        assert 0 < calls[0] <= 49, (command, calls[0])
    expansion._expand_cached.cache_clear()
    calls[0] = 0
    assert run(capsys, "zeros", "10")[0] == 0
    assert 0 < calls[0] <= 3, calls[0]


def test_zeros_counts(capsys):
    code, out = run(capsys, "zeros", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["zeros"]) == 12
    assert all(z["kind"] == "corollary6" for z in doc["zeros"])


def test_zeros_report_lists_every_zero():
    for n in range(6, 9):
        leib = oracles.leibniz_expansion(n)
        want = [indices_from_multiplicities(m) for m in valid_vectors(n) if m not in leib]
        assert [a for a, _ in cli.zeros_report(n)] == want, n


def test_zeros_lists_without_scanning(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("zeros above N = 8 must not enumerate valid vectors")

    monkeypatch.setattr(symmetry, "valid_vectors", refuse)
    code, out = run(capsys, "zeros", "12")
    assert code == 0
    assert out.splitlines()[-1] == "total 192"


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "3..5")
    assert code == 0
    assert "FAIL" not in out
    for name in ("oracle", "identities", "lemmas", "symmetry", "counting"):
        assert "%s: pass" % name in out


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "3..6", "--suite", "counting")
    assert code == 0
    assert out.strip() == "counting: pass"


def test_verify_unknown_suite(capsys):
    assert run(capsys, "verify", "3..5", "--suite", "nope")[0] == 2


def test_verify_bad_range(capsys):
    assert run(capsys, "verify", "3..x")[0] == 2
    assert run(capsys, "verify", "3..")[0] == 2
    # a range that checks nothing is a usage error, not a pass
    assert run(capsys, "verify", "5..3")[0] == 2
    assert run(capsys, "verify", "20..30")[0] == 2
    assert run(capsys, "verify", "9", "--suite", "oracle")[0] == 2


def test_verify_skips_suites_outside_range(capsys):
    code, out = run(capsys, "verify", "10")
    assert code == 0
    assert "counting: pass" in out
    for name in ("oracle", "identities", "lemmas", "symmetry"):
        assert "%s: skip" % name in out


def _child_env():
    """This environment with the tested package importable in a child
    interpreter, which does not inherit pytest's `pythonpath` setting."""
    src = os.path.dirname(os.path.dirname(circulant.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "circulant.cli", "coeff", "3", "0,1,2"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-3"


def test_import_loads_no_oracles():
    # only coeff --check and verify need the oracles, and with them fractions
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, circulant.cli\n"
         "for name in ('circulant.oracles', 'fractions', 'decimal'):\n"
         "    assert name not in sys.modules, name"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_import_needs_no_sympy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, circulant.cli; assert 'sympy' not in sys.modules"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
