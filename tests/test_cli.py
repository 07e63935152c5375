import csv
import io
import json
import os
import subprocess
import sys
import time

import circulant
import cold_budgets
from circulant import cli, coeff_engine, expansion, oracles, symmetry
from circulant.coeff_engine import indices_from_multiplicities
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


def test_coeff_refused_above_state_limit(capsys):
    # every index distinct at N leaves N - 3 labels, 3^(N-3) pairs of a
    # labeled subset and a submask; at N = 1001 all N phi(N) group
    # elements tie in the reduction, which must not build their images
    for n in (23, 1001):
        t0 = time.time()
        code, out, err = _call(capsys, ["coeff", str(n), ",".join(map(str, range(n)))])
        assert time.time() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err == "error: the partition sum needs %d steps, above the limit of %d\n" % (
            3 ** (n - 3), coeff_engine.MAX_PARTITION_STEPS)


def test_coeff_check_mismatch(capsys, monkeypatch):
    # one output in the requested format, then the mismatch on stderr, exit 3
    monkeypatch.setattr(oracles, "coeff_via_theorem2", lambda a: 6)
    assert cli.main(["coeff", "5", "0,0,1,2,2", "--check"]) == 3
    out, err = capsys.readouterr()
    assert out == "5\n"
    assert err == "oracle mismatch: engine 5 vs oracle 6\n"
    assert cli.main(["coeff", "5", "0,0,1,2,2", "--check", "--format", "json"]) == 3
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert (doc["value"], doc["oracle"]) == ("5", "6")
    assert err == "oracle mismatch: engine 5 vs oracle 6\n"


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 2


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one main call."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_command_line_exit_codes(capsys):
    # every bad command line exits 2 with nothing on stdout and one line on
    # stderr; help goes to stdout with exit 0
    cases = [
        (["coeff", "10", "0,0,1,1,1,1,3,7,8,8", "--format", "json", "--check"], 0),
        (["coeff", "10", "0,0,1,1,1,1,3,7,8,8", "--format", "json"], 0),
        (["expand", "5", "--include-zeros", "--format", "csv"], 0),
        (["expand", "5"], 0),
        (["coeff", "5"], 2),  # a positional missing
        (["coeff", "5", "0,0,1,2,2"], 0),
        (["coeff", "5", "0,0,1,2,9"], 2),  # an index out of range
        (["zeros", "6", "--format", "json"], 0),
        (["coeff", "--help"], 0),
        ([], 2),
        (["verify", "3..4", "--suite", "lemmas"], 0),
        (["coeff", "6", "2,3,0,1,0,0", "--mult", "--format", "json"], 0),
        (["coeff", "5", "0,0,1,2,2", "--format=json"], 0),
        (["coeff", "--format", "json", "5", "0,0,1,2,2"], 0),
        (["--help"], 0),
        (["expand", "--help"], 0),
        (["coeff", "5", "0,0,1,2,2", "--form", "json"], 2),  # no abbreviations
        (["bogus"], 2),
        (["coeff", "-5", "0"], 2),  # a negative N reaches the range checks
        (["coeff", "-1", "0"], 2),  # N < 1 is refused before the indices are read
        (["coeff", "0", ""], 2),
        (["coeff", "5", "0,0,1,2,2", "--mult=1"], 2),
        (["coeff", "5", "0,0,1,2,2", "--format"], 2),
        (["coeff", "5", "0,0,1,2,2", "3"], 2),
        (["expand", "x"], 2),
        (["verify", "3", "--suite="], 2),  # an empty suite name is no suite
    ]
    outputs = {}
    for argv, want in cases:
        code, out, err = _call(capsys, argv)
        assert code == want, (argv, code, err)
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1, (argv, out, err)
            assert err.startswith("error: " if argv else "usage: circulant "), (argv, err)
        else:
            assert err == "", (argv, err)
        outputs[tuple(argv)] = out
    # the same document however the option is written or placed
    json_doc = outputs[("coeff", "5", "0,0,1,2,2", "--format=json")]
    assert json.loads(json_doc)["value"] == "5"
    assert outputs[("coeff", "--format", "json", "5", "0,0,1,2,2")] == json_doc
    assert cli.parse_args(["coeff", "-5", "0"]).N == -5
    # as for expand, multiplets and zeros, N < 1 is named, whatever the indices
    for argv in (["coeff", "-1", "0"], ["coeff", "0", ""]):
        assert _call(capsys, argv) == (2, "", "error: N out of range\n"), argv


def test_help_for_every_command(capsys):
    # the usage line, then one line per command or per option of the command
    code, out, err = _call(capsys, ["--help"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == cli.USAGE
    assert [line.split()[0] for line in lines[1:-1]] == list(cli.COMMANDS)
    for name, (_, _, positionals, _, options) in cli.COMMANDS.items():
        for flag in ("-h", "--help"):
            code, out, err = _call(capsys, [name, *positionals, flag])
            assert (code, err) == (0, ""), (name, flag)
            lines = out.splitlines()
            assert lines[0].startswith("usage: circulant %s %s" % (name, " ".join(positionals)))
            assert [line.split()[0] for line in lines[1:-1]] == list(options), name
            assert lines[-1].split()[:2] == ["-h,", "--help"], name


def test_coeff_reduces_once(capsys, monkeypatch):
    calls = [0]
    original = coeff_engine._reduce

    def counting(m):
        calls[0] += 1
        return original(m)

    # partition sum at N = 16, then the residue-gate and all-equal paths,
    # which report the same representative as the partition-sum path would
    for n, text, path in ((16, "0,0,0,0,0,0,0,1,1,1,2,5,5,9,12,12", "partition-sum"),
                          (5, "0,0,1,2,3", "residue-gate"), (4, "2,2,2,2", "all-equal")):
        monkeypatch.setattr(coeff_engine, "_reduce", counting)
        calls[0] = 0
        code, out = run(capsys, "coeff", str(n), text, "--format", "json")
        assert code == 0 and calls[0] == 1, (n, text, calls[0])
        monkeypatch.setattr(coeff_engine, "_reduce", original)
        rep, sign = coeff_engine.reduce_representative([int(t) for t in text.split(",")])
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
        want = sorted(oracles.leibniz_expansion(n).items())
        assert line == cli.poly_to_json(n, want), n


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

    def json_terms(n, *flags):
        _, out = run(capsys, "expand", str(n), "--format", "json", *flags)
        return [(tuple(t["M"]), int(t["coeff"])) for t in json.loads(out)["terms"]]

    for n in range(2, 9):
        terms = json_terms(n, "--include-zeros")
        assert len(terms) == symmetry.count_solutions_F(n), n
        _, out = run(capsys, "expand", str(n), "--format", "csv", "--include-zeros")
        rows = {(tuple(int(c) for c in key), int(value))
                for key, value in (line.split(",") for line in out.splitlines()[1:])}
        assert set(terms) == rows, n
        # without the flag, json lists the nonzero terms only, as before
        assert json_terms(n) == [(key, value) for key, value in terms if value], n


def test_expand_one(capsys):
    # the csv module ends every row with CRLF
    want = {"json": '{"N":1,"terms":[{"M":[1],"coeff":"1"}]}\n',
            "csv": "M,coeff\r\n1,1\r\n",
            "text": "partition 1\n  C*_1 = 1\n"}
    for fmt, out in want.items():
        for extra in ([], ["--include-zeros"]):
            assert run(capsys, "expand", "1", "--format", fmt, *extra) == (0, out)


def test_format_only_where_implemented(capsys):
    # coeff and zeros print json or text; verify prints a fixed report
    for argv in (["coeff", "3", "0,1,2", "--format", "csv"],
                 ["zeros", "6", "--format", "csv"],
                 ["verify", "3", "--format", "json"]):
        code, out, _ = _call(capsys, argv)
        assert (code, out) == (2, ""), argv


def test_expand_range_check(capsys):
    for n in ("99", "13", "0"):
        assert run(capsys, "expand", n) == (2, ""), n


def test_orbit_commands_range_check(capsys):
    # multiplets and zeros take N = 2..12
    for command in ("multiplets", "zeros"):
        for n in ("13", "1"):
            assert run(capsys, command, n) == (2, ""), (command, n)


def test_every_cap_has_a_cold_budget():
    # a command whose N is capped runs under a budget at its cap, so a
    # raised cap needs a new row in the budget table
    capped = {(name, str(entry[3][1])) for name, entry in cli.COMMANDS.items()
              if entry[3] is not None and entry[3][1] != float("inf")}
    budgeted = {tuple(row.argv[:2]) for row in cold_budgets.ROWS if row.code == 0}
    assert {name for name, _ in capped} == {"expand", "multiplets", "zeros"}
    assert capped <= budgeted


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


def test_keys_are_one_character_per_entry(capsys):
    # an entry of 10 or more prints as A, B, C, ..., so every multiplicity
    # vector key of N = 10..12 is N characters that decode to a valid vector
    for n in range(10, 13):
        for command, column in (("multiplets", 1), ("expand", 0)):
            code, out = run(capsys, command, str(n), "--format", "csv")
            assert code == 0
            for row in list(csv.reader(out.splitlines()))[1:]:
                key = row[column]
                assert len(key) == n, (command, key)
                m = [int(ch, 36) for ch in key]
                assert sum(m) == n and sum(i * c for i, c in enumerate(m)) % n == 0, key



def test_zeros_text_is_one_character_per_index(capsys):
    # the indices 10 and 11 print as A and B, so every index set of N = 12
    # is N characters that read back as a listed zero
    code, out = run(capsys, "zeros", "12")
    assert code == 0
    lines = out.splitlines()
    listed = {a for a, _ in cli.zeros_report(12)}
    assert lines[-1] == "total %d" % len(listed)
    for line in lines[:-1]:
        text, _ = line.split()
        assert len(text) == 12, line
        assert tuple(int(ch, 36) for ch in text) in listed, line

def test_one_evaluation_per_super_orbit(capsys, monkeypatch):
    # N = 8 has 49 super orbits; neither command evaluates more than that.
    # The structural zeros of N = 10 fill 3 super orbits.
    calls = [0]
    original = coeff_engine._theorem3

    def counting(m):
        calls[0] += 1
        return original(m)

    monkeypatch.setattr(coeff_engine, "_theorem3", counting)
    for command in ("multiplets", "expand"):
        expansion.orbit_values.cache_clear()
        calls[0] = 0
        assert run(capsys, command, "8")[0] == 0
        assert 0 < calls[0] <= 49, (command, calls[0])
    expansion.orbit_values.cache_clear()
    calls[0] = 0
    assert run(capsys, "zeros", "10")[0] == 0
    assert 0 < calls[0] <= 3, calls[0]


def test_one_walk_per_dimension(capsys, monkeypatch):
    # multiplets 8 generates the 49 canonical vectors once and makes one
    # group pass over each; expand 8 makes one more group pass over each.
    # Neither walks the valid vectors.
    counts = {"valid_vectors": 0, "orbit_signs": 0}

    def counting(name):
        original = getattr(symmetry, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(symmetry, name, counting(name))
    expansion.orbit_values.cache_clear()
    assert run(capsys, "multiplets", "8")[0] == 0
    assert counts == {"valid_vectors": 0, "orbit_signs": 49}
    expansion.orbit_values.cache_clear()
    assert run(capsys, "expand", "8")[0] == 0
    assert counts == {"valid_vectors": 0, "orbit_signs": 98}


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
    # zeros and multiplets read the orbit table: neither enumerates the
    # valid vectors nor builds the full expansion
    def refuse(name):
        def call(n):
            raise AssertionError("%s(%d) called" % (name, n))
        return call

    monkeypatch.setattr(symmetry, "valid_vectors", refuse("valid_vectors"))
    monkeypatch.setattr(expansion, "expand", refuse("expand"))
    for n in range(2, 13):
        code, out = run(capsys, "zeros", str(n))
        assert code == 0, n
    assert out.splitlines()[-1] == "total 192"
    for n in range(2, 11):
        assert run(capsys, "multiplets", str(n))[0] == 0, n


def test_orbit_route_does_not_reduce(capsys, monkeypatch):
    # the orbit table evaluates each canonical vector as generated: a
    # canonical vector already stands for its orbit, so nothing on the
    # expand, multiplets or zeros route reduces it; above N = 8 zeros checks
    # each corollary-6 orbit at its canonical member
    def refuse(a):
        raise AssertionError("reduction of %s called" % (a,))

    monkeypatch.setattr(coeff_engine, "reduce_representative", refuse)
    monkeypatch.setattr(coeff_engine, "_reduce", refuse)
    expansion.orbit_values.cache_clear()
    for n in range(1, 11):
        assert run(capsys, "expand", str(n))[0] == 0, n
    for n in range(2, 11):
        assert run(capsys, "multiplets", str(n))[0] == 0, n
    for n in range(2, 13):
        assert run(capsys, "zeros", str(n))[0] == 0, n


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "3..5")
    assert code == 0
    assert "FAIL" not in out
    for name in ("oracle", "identities", "lemmas", "symmetry", "counting", "determinant"):
        assert "%s: pass" % name in out


def test_verify_determinant_suite(capsys):
    code, out = run(capsys, "verify", "2..12", "--suite", "determinant")
    assert code == 0
    assert out.strip() == "determinant: pass"


def test_verify_determinant_catches_one_wrong_coefficient(capsys, monkeypatch):
    # off by one at a single super-orbit representative of N = 6
    original = coeff_engine._theorem3

    def off_by_one(m):
        value, path = original(m)
        return value + (m == (3, 1, 1, 1, 0, 0)), path

    monkeypatch.setattr(coeff_engine, "_theorem3", off_by_one)
    expansion.orbit_values.cache_clear()
    try:
        code, out = run(capsys, "verify", "6", "--suite", "determinant")
    finally:
        expansion.orbit_values.cache_clear()
    assert code == 1
    assert out.startswith("determinant: FAIL (expansion differs from the determinant at N=6")


def test_verify_suites_evaluate_without_the_expansion(capsys, monkeypatch):
    # the identities and determinant suites evaluate the orbit table orbit
    # by orbit and never list the terms
    def refuse(n):
        raise AssertionError("expand(%d) called" % n)

    monkeypatch.setattr(expansion, "expand", refuse)
    for suite in ("identities", "determinant"):
        code, out = run(capsys, "verify", "2..12", "--suite", suite)
        assert (code, out) == (0, "%s: pass\n" % suite)


def test_verify_identities_catches_one_wrong_orbit_value(capsys, monkeypatch):
    # every sign is +1 at odd N, so one orbit value off by one moves the
    # all-ones determinant by the orbit's size
    original = expansion.orbit_values

    def off_by_one(n):
        table = original(n)
        if n == 7:
            m, value = table[5]
            table = table[:5] + ((m, value + 1),) + table[6:]
        return table

    monkeypatch.setattr(expansion, "orbit_values", off_by_one)
    code, out = run(capsys, "verify", "2..9", "--suite", "identities")
    assert code == 1
    assert out == "identities: FAIL (det of all-ones not zero at N=7)\n"


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
    assert "determinant: pass" in out
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



def test_closed_pipe_exits_quietly():
    # expand 10 --format csv prints 120 KB, more than a pipe buffers, so the
    # child is still writing when its reader closes after the first line
    with subprocess.Popen(
            [sys.executable, "-m", "circulant.cli", "expand", "10", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as proc:
        assert proc.stdout.readline() == b"M,coeff\r\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE_CLOSED
    assert stderr == b""


def test_closed_pipe_in_process_leaves_stdout_for_later_calls(monkeypatch, capsys):
    # main may be called many times in one process: a closed pipe ends only
    # the call that met it, and the process's fd 1 is left alone
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    def no_dup2(*args):
        raise AssertionError("main redirected a file descriptor")

    with monkeypatch.context() as m:
        m.setattr(os, "dup2", no_dup2)
        m.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(["coeff", "3", "0,1,2"]) == cli.EXIT_PIPE_CLOSED
    assert cli.main(["coeff", "3", "0,1,2"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "-3\n"

def test_import_loads_no_oracles():
    # only coeff --check and verify need the oracles, and with them fractions;
    # the command line is parsed without argparse
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, circulant.cli\n"
         "for name in ('circulant.oracles', 'fractions', 'decimal', 'argparse'):\n"
         "    assert name not in sys.modules, name\n"
         # the traced benchmark wraps functions of these modules by name
         "for name in ('cli', 'expansion', 'symmetry', 'coeff_engine', 'partitions',\n"
         "             'exactmath'):\n"
         "    assert 'circulant.' + name in sys.modules, name\n"
         "assert circulant.cli.main(['coeff', '5', '0,0,1,2,2']) == 0\n"
         "assert 'argparse' not in sys.modules"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5\n"


def test_orbit_commands_load_no_oracles():
    # multiplets and zeros build their rows from the orbit table alone; the
    # orbit records are the oracles' reference, never the runtime's
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import contextlib, io, sys\n"
         "from circulant import cli\n"
         "for n in range(2, 13):\n"
         "    for command in ('multiplets', 'zeros'):\n"
         "        with contextlib.redirect_stdout(io.StringIO()):\n"
         "            assert cli.main([command, str(n)]) == 0, (command, n)\n"
         "assert 'circulant.oracles' not in sys.modules"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_import_needs_no_sympy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, circulant.cli; assert 'sympy' not in sys.modules"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
