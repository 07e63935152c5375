# Command-line front end: coefficients, expansions, multiplet tables, zero
# lists and verification suites.

import csv
import io
import json
import os
import sys
from types import SimpleNamespace

# `partitions` serves only the oracles, which load lazily (coeff --check and
# verify); it is imported here because perfbench/layers.py wraps
# partitions.multiset_partitions by module name after importing this module
from . import coeff_engine, expansion, partitions, symmetry  # noqa: F401

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_ORACLE_MISMATCH = 3
# the reader closed stdout early (`... | head`): 128 + SIGPIPE, the status a
# shell reports for a writer that the signal ended
EXIT_PIPE_CLOSED = 141

# coeff --check walks every distinct arrangement of the indices (up to N! of
# them): 7 s for 0..9 at N = 10 with Python 3.11 on one core, hours by N = 14
CHECK_MAX_N = 10


class UsageError(Exception):
    pass


def _parse_indices(n, text, as_mult):
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError("indices must be comma-separated integers")
    if as_mult:
        if len(values) != n or sum(values) != n or any(v < 0 for v in values):
            raise UsageError("multiplicity vector must have N nonnegative entries summing to N")
        return coeff_engine.indices_from_multiplicities(values)
    if len(values) != n:
        raise UsageError("need exactly N indices")
    if any(v < 0 or v >= n for v in values):
        raise UsageError("indices must lie in [0, N-1]")
    return tuple(sorted(values))


def _csv(header, rows):
    """One CSV document, without its final line break."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def poly_to_json(n, terms) -> str:
    # one string per term, with no dict or list per term (those set expand 12's
    # peak RSS); the same bytes as json.dumps of
    # {"N": n, "terms": [{"M": [...], "coeff": "..."}, ...]} with no spaces
    term = '{"M":[%s],"coeff":"%%d"}' % ",".join(["%d"] * n)  # one format for every term
    body = ",".join(term % (*key, value) for key, value in terms)
    return '{"N":%d,"terms":[%s]}' % (n, body)


KEY_DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _key(m):
    """A multiplicity vector, or an index set, as one character per entry:
    0-9, then A, B, C, ... (read back with int(ch, 36)), so both stay N
    characters long."""
    return "".join(KEY_DIGITS[c] for c in m)


def _poly_text(n, terms):
    groups = {}  # partition of N (the nonzero entries, descending) -> terms
    for term in terms:  # the groups share the list's pairs
        part = tuple(sorted((c for c in term[0] if c), reverse=True))
        groups.setdefault(part, []).append(term)
    lines = []
    # partitions of one N are never prefixes of each other, so descending
    # tuple order is descending order part by part
    for part in sorted(groups, reverse=True):
        lines.append("partition %s" % ".".join(map(str, part)))
        lines.extend("  C*_%s = %d" % (_key(key), value) for key, value in groups[part])
    return "\n".join(lines)


def _poly_csv(n, terms):
    return _csv(["M", "coeff"], ((_key(key), value) for key, value in terms))


def cmd_coeff(args):
    if args.check and args.N > CHECK_MAX_N:
        raise UsageError("--check needs N <= %d" % CHECK_MAX_N)
    a = _parse_indices(args.N, args.indices, args.mult)
    try:
        value, path, rep, sign = coeff_engine.coefficient_with_path(a)
    except coeff_engine.StateLimitError as exc:
        raise UsageError(str(exc))
    doc = {
        "N": args.N,
        "indices": list(a),
        "value": str(value),
        "path": path,
        "representative": {"indices": list(rep), "sign": sign},
    }
    oracle = value  # without --check nothing can disagree
    if args.check:
        from . import oracles
        oracle = oracles.coeff_via_theorem2(a)
        doc["oracle"] = str(oracle)
    print(json.dumps(doc, separators=(",", ":")) if args.format == "json" else value)
    if oracle != value:
        print("oracle mismatch: engine %d vs oracle %d" % (value, oracle), file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def cmd_expand(args):
    render = {"json": poly_to_json, "csv": _poly_csv, "text": _poly_text}[args.format]
    terms = expansion.expand(args.N)
    print(render(args.N, terms if args.include_zeros else (t for t in terms if t[1])))
    return EXIT_OK


def cmd_multiplets(args):
    rows = [{"kind": kind, "representative": _key(rep), "n": size,
             "value": str(value)}
            for kind, rep, size, value in expansion.multiplet_rows(args.N)]
    footer = {"F": symmetry.count_solutions_F(args.N),
              "additive_total": sum(
                  symmetry.additive_multiplet_count_g(args.N, k)
                  for k in range(1, args.N + 1))}
    try:
        footer["super_closed_form"] = symmetry.supermultiplet_count(args.N)
    except ValueError:
        footer["super_closed_form"] = None
    doc = {"N": args.N, "multiplets": rows, "footer": footer}
    if args.format == "json":
        print(json.dumps(doc, separators=(",", ":")))
    elif args.format == "csv":
        header = ["kind", "representative", "n", "value"]
        print(_csv(header, ([row[col] for col in header] for row in rows)))
    else:
        for row in rows:
            print("%-8s %s  n=%-3d value=%s"
                  % (row["kind"], row["representative"], row["n"], row["value"]))
        print("F(%d)=%d additive=%d super=%s"
              % (args.N, footer["F"], footer["additive_total"],
                 footer["super_closed_form"]))
    return EXIT_OK


def zeros_report(n):
    """(index set, annotation) for every vanishing condition-(8) coefficient.

    Every zero super orbit of the evaluated orbit table for small n; above
    N = 8 the corollary-6 orbits, each checked by one evaluation at its
    canonical (largest) member, so no orbit is reduced.
    """
    family = {}  # representative -> {member: sign} of a corollary-6 orbit
    for a in coeff_engine.corollary6_shapes(n):
        signs = symmetry.orbit_signs(coeff_engine.multiplicities(a))
        family[min(signs)] = signs
    if n <= 8:
        zero = [symmetry.orbit_signs(m) for m, value in expansion.orbit_values(n) if not value]
    else:
        zero = family.values()
        for signs in zero:
            assert coeff_engine._theorem3(max(signs))[0] == 0
    listing = []
    for signs in zero:
        kind = "corollary6" if min(signs) in family else "accidental"
        listing.extend((m, kind) for m in signs)
    # by multiplicity vector; descending above N = 8 lists the index sets ascending
    listing.sort(reverse=n > 8)
    return [(coeff_engine.indices_from_multiplicities(m), kind) for m, kind in listing]


def cmd_zeros(args):
    report = zeros_report(args.N)
    if args.format == "json":
        doc = {"N": args.N,
               "zeros": [{"indices": list(a), "kind": kind} for a, kind in report]}
        print(json.dumps(doc, separators=(",", ":")))
    else:
        for a, kind in report:
            print("%s %s" % (_key(a), kind))
        print("total %d" % len(report))
    return EXIT_OK


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError("range must be N or LO..HI with integer bounds")


def _verify_oracle(lo, hi):
    from . import oracles
    for n in range(lo, hi + 1):
        leib = oracles.leibniz_expansion(n)
        for m in symmetry.valid_vectors(n):
            a = coeff_engine.indices_from_multiplicities(m)
            got = coeff_engine.coeff_theorem3(a)
            want = leib.get(m, 0)
            if got != want:
                return "N=%d %s: engine %d vs determinant %d" % (n, m, got, want)
            if n <= 7 and oracles.coeff_via_theorem2(a) != want:
                return "N=%d %s: count-based oracle disagrees" % (n, m)
    return None


def _verify_identities(lo, hi):
    for n in range(lo, hi + 1):
        if n % 2 == 1 and expansion.evaluate(n, [1] * n) != 0:
            return "det of all-ones not zero at N=%d" % n
        want = (n - 1) * (1 if n % 2 else -1)
        if expansion.evaluate(n, [0] + [1] * (n - 1)) != want:
            return "det[0,1,...,1] wrong at N=%d" % n
    return None


def _verify_lemmas(lo, hi):
    from . import oracles
    for n in range(lo, hi + 1):
        for p in range(0, n):
            q = tuple(range(1, p + 1))
            if not oracles.lemma1_check(n, q):
                return "series identity failed at N=%d q=%s" % (n, q)
    if not oracles.lemma2_check(3, 5, trials=10):
        return "symmetric-sum reduction failed"
    return None


def _verify_symmetry(lo, hi):
    for n in range(lo, hi + 1):
        perm, sign = coeff_engine.group_action(n, 1, 1)
        for m in symmetry.valid_vectors(n):
            a = coeff_engine.indices_from_multiplicities(m)
            c = coeff_engine.coefficient(a)
            if c % coeff_engine.divisibility_bound(a) != 0:
                return "divisibility bound violated at N=%d %s" % (n, m)
            shifted = coeff_engine.indices_from_multiplicities(tuple(m[p] for p in perm))
            if coeff_engine.coeff_theorem3(shifted) * sign != c:
                return "shift covariance violated at N=%d %s" % (n, m)
    return None


def _verify_determinant(lo, hi):
    # a wrong expansion differs from the determinant by a nonzero polynomial
    # of degree N, which vanishes at a random point with entries near 2^61
    # with probability at most about N / 2^62 (Schwartz-Zippel)
    import random

    from . import oracles
    for n in range(lo, hi + 1):
        rng = random.Random(n)  # the points of N do not depend on the range
        for _ in range(2):
            x = [(1 << 61) + rng.randrange(-(1 << 60), 1 << 60) for _ in range(n)]
            if expansion.evaluate(n, x) != oracles.circulant_det(x):
                return "expansion differs from the determinant at N=%d x=%s" % (n, x)
    return None


def _verify_counting(lo, hi):
    for n in range(lo, hi + 1):
        if symmetry.count_solutions_F(n) != len(symmetry.valid_vectors(n)):
            return "solution count formula wrong at N=%d" % n
    return None


# command -> (function, help line, positionals, N range, options): N must
# lie in lo..hi, and `verify`, added below SUITES, has no N. An option maps
# to (help, values): values None makes it a flag, off by default; a tuple
# makes it take one of those values, the first by default; () takes any
# value and defaults to None
COMMANDS = {
    "coeff": (cmd_coeff, "one expansion coefficient", ("N", "indices"), (1, float("inf")), {
        "--mult": ("read the argument as a multiplicity vector", None),
        "--check": ("compare with the arrangement-counting oracle (N <= %d)" % CHECK_MAX_N,
                    None),
        "--format": ("output format", ("text", "json"))}),
    "expand": (cmd_expand, "full determinant expansion", ("N",), (1, 12), {
        "--include-zeros": ("list the zero coefficients too", None),
        "--format": ("output format", ("text", "json", "csv"))}),
    "multiplets": (cmd_multiplets, "orbit table", ("N",), (2, 12), {
        "--format": ("output format", ("text", "json", "csv"))}),
    "zeros": (cmd_zeros, "vanishing coefficients", ("N",), (2, 12), {
        "--format": ("output format", ("text", "json"))}),
}


# suite -> (check over dimensions lo..hi, the dimensions it can check); the
# determinant suite evaluates the orbit table as far as `expand` serves it
SUITES = {
    "oracle": (_verify_oracle, 3, 8),
    "identities": (_verify_identities, 2, 9),
    "lemmas": (_verify_lemmas, 3, 8),
    "symmetry": (_verify_symmetry, 2, 7),
    "counting": (_verify_counting, 2, 10),
    "determinant": (_verify_determinant, 2, COMMANDS["expand"][3][1]),
}


def cmd_verify(args):
    lo, hi = _parse_range(args.range)
    if lo > hi:
        raise UsageError("empty range %d..%d" % (lo, hi))
    names = sorted(SUITES) if args.suite is None else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UsageError("unknown suite %r" % name)
    # each selected suite's window of N clipped to the range; empty when it misses
    clipped = {name: (max(lo, SUITES[name][1]), min(hi, SUITES[name][2])) for name in names}
    if all(start > stop for start, stop in clipped.values()):
        raise UsageError("no selected suite checks N in %d..%d" % (lo, hi))
    failed = False
    for name in names:
        check, first, last = SUITES[name]
        start, stop = clipped[name]
        if start > stop:
            print("%s: skip (checks N = %d..%d)" % (name, first, last))
            continue
        err = check(start, stop)
        if err is None:
            print("%s: pass" % name)
        else:
            print("%s: FAIL (%s)" % (name, err))
            failed = True
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


COMMANDS["verify"] = (cmd_verify, "run invariant suites", ("range",), None, {
    "--suite": ("run only this suite: %s" % ", ".join(sorted(SUITES)), ())})

USAGE = "usage: circulant {%s} ..." % ",".join(COMMANDS)
HELP_FLAGS = ("-h", "--help")


def _is_option(tok):
    """An option-like token: a dash and more, but not a negative number."""
    return len(tok) > 1 and tok[0] == "-" and not tok[1].isdigit()


def _dest(option):
    return option[2:].replace("-", "_")


def parse_args(argv):
    """The namespace of one command line, with the attributes the command's
    function reads and `func`, the function; UsageError for a bad one.

    Options take their full names only, anywhere after the command, with a
    value as `--opt value` or `--opt=value`; `--` ends the options, and a
    negative number such as -5 is a positional. -h or --help before any `--`
    asks for help: `func` then prints it.
    """
    if not argv:
        raise UsageError("no command")
    name, rest = argv[0], argv[1:]
    if name in HELP_FLAGS:
        return SimpleNamespace(func=_print_help, command=None)
    if name not in COMMANDS:
        raise UsageError("unknown command %r (choose from %s)" % (name, ", ".join(COMMANDS)))
    func, _, positionals, _, options = COMMANDS[name]
    if any(tok in HELP_FLAGS for tok in rest[:rest.index("--") if "--" in rest else None]):
        return SimpleNamespace(func=_print_help, command=name)
    args = SimpleNamespace(func=func, command=name, **{
        _dest(opt): False if values is None else values[0] if values else None
        for opt, (_, values) in options.items()})
    found = []
    tokens = iter(rest)
    for tok in tokens:
        if tok == "--":
            found.extend(tokens)
        elif not _is_option(tok):
            found.append(tok)
        else:
            opt, eq, value = tok.partition("=")
            if opt not in options:
                raise UsageError("%s: unknown option %s" % (name, opt))
            values = options[opt][1]
            if values is None:
                if eq:
                    raise UsageError("%s: %s takes no value" % (name, opt))
                value = True
            elif not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise UsageError("%s: %s needs a value" % (name, opt))
            if values and value not in values:
                raise UsageError("%s: %s must be one of %s, not %r"
                                 % (name, opt, ", ".join(values), value))
            setattr(args, _dest(opt), value)
    if len(found) > len(positionals):
        raise UsageError("%s: unexpected argument %r" % (name, found[len(positionals)]))
    if len(found) < len(positionals):
        raise UsageError("%s: missing %s" % (name, " ".join(positionals[len(found):])))
    for positional, value in zip(positionals, found):
        if positional == "N":
            try:
                value = int(value)
            except ValueError:
                raise UsageError("%s: N must be an integer, not %r" % (name, value))
        setattr(args, positional, value)
    return args


def _print_help(args):
    """The usage line, then one line per command, or per option of one."""
    if args.command is None:
        usage = USAGE
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        _, _, positionals, _, options = COMMANDS[args.command]
        rows = []
        for opt, (text, values) in options.items():
            if values:
                opt = "%s {%s}" % (opt, ",".join(values))
                text = "%s, %s by default" % (text, values[0])
            elif values is not None:
                opt = "%s %s" % (opt, _dest(opt).upper())
            rows.append((opt, text))
        usage = " ".join(["usage: circulant", args.command, *positionals]
                         + ["[%s]" % opt for opt, _ in rows])
    rows.append((", ".join(HELP_FLAGS), "show this help and exit"))
    width = max(len(opt) for opt, _ in rows)
    print("\n".join([usage] + ["  %-*s  %s" % (width, opt, text) for opt, text in rows]))
    return EXIT_OK


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        if hasattr(args, "N"):  # checked after the whole line is parsed
            lo, hi = COMMANDS[args.command][3]
            if not lo <= args.N <= hi:
                raise UsageError("N out of range")
        code = args.func(args)
        # flush inside the try, so a closed pipe is caught here and not in
        # the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except UsageError as exc:
        # no command at all gets the usage line as its reminder
        print("error: %s" % exc if argv else USAGE, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_PIPE_CLOSED


def run():
    """Process entry point (the `circulant` script and `python -m
    circulant.cli`): main, then exit with its code.

    After a closed pipe, stdout goes to /dev/null, so the interpreter's
    final flush of what is still buffered cannot raise again. That is done
    here, where the process ends, and not in main, which may be called
    again in the same process.
    """
    code = main()
    if code == EXIT_PIPE_CLOSED:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    run()
