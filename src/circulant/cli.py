# Command-line front end: coefficients, expansions, multiplet tables, zero
# lists and verification suites.

import argparse
import csv
import io
import json
import sys

# `partitions` serves only the oracles, which load lazily (coeff --check and
# verify); it is imported here because perfbench/layers.py wraps
# partitions.multiset_partitions by module name after importing this module
from . import coeff_engine, expansion, partitions, symmetry  # noqa: F401

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_ORACLE_MISMATCH = 3

# coeff --check walks every distinct arrangement of the indices (up to N! of
# them): 9 s for 0..9 at N = 10 with Python 3.11 on one core, hours by N = 14
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


def poly_to_json(poly) -> str:
    terms = [{"M": list(k), "coeff": str(v)} for k, v in poly.sorted_terms()]
    return json.dumps({"N": poly.n, "terms": terms}, separators=(",", ":"))


def _partition_label(key):
    return ".".join(str(c) for c in sorted((c for c in key if c), reverse=True))


def _poly_text(poly, include_zeros):
    groups = {}
    items = sorted(poly.all_terms.items()) if include_zeros else poly.sorted_terms()
    for key, value in items:
        groups.setdefault(_partition_label(key), []).append((key, value))
    lines = []
    for label in sorted(groups, key=lambda s: ([-int(t) for t in s.split(".")], s)):
        lines.append("partition %s" % label)
        for key, value in groups[label]:
            lines.append("  C*_%s = %d" % ("".join(str(c) for c in key), value))
    return "\n".join(lines)


def _poly_csv(poly, include_zeros):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["M", "coeff"])
    items = sorted(poly.all_terms.items()) if include_zeros else poly.sorted_terms()
    for key, value in items:
        writer.writerow(["".join(str(c) for c in key), value])
    return buf.getvalue().rstrip("\n")


def cmd_coeff(args):
    if args.check and args.N > CHECK_MAX_N:
        raise UsageError("--check needs N <= %d" % CHECK_MAX_N)
    a = _parse_indices(args.N, args.indices, args.mult)
    value, path, rep, sign = coeff_engine.coefficient_with_path(a)
    doc = {
        "N": args.N,
        "indices": list(a),
        "value": str(value),
        "path": path,
        "representative": {"indices": list(rep), "sign": sign},
    }
    if args.check:
        from . import oracles
        oracle = oracles.coeff_via_theorem2(a)
        doc["oracle"] = str(oracle)
        if oracle != value:
            print(json.dumps(doc, separators=(",", ":")))
            print("oracle mismatch: engine %d vs oracle %d" % (value, oracle),
                  file=sys.stderr)
            return EXIT_ORACLE_MISMATCH
    if args.format == "json":
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(value)
    return EXIT_OK


def cmd_expand(args):
    if args.N < 1 or args.N > expansion.MAX_N:
        raise UsageError("N out of range")
    if args.N == 1:
        poly = expansion.ExpansionPolynomial(1, {(1,): 1})
    else:
        poly = expansion.expand(args.N)
    if args.format == "json":
        print(poly_to_json(poly))
    elif args.format == "csv":
        print(_poly_csv(poly, args.include_zeros))
    else:
        print(_poly_text(poly, args.include_zeros))
    return EXIT_OK


def cmd_multiplets(args):
    if args.N < 2 or args.N > expansion.MAX_N:
        raise UsageError("N out of range")
    records = symmetry.classify(args.N)
    values = expansion.expand(args.N).all_terms
    rows = [{"kind": rec.kind,
             "representative": "".join(str(c) for c in rec.representative),
             "n": rec.n,
             "value": str(values[rec.representative])} for rec in records]
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
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["kind", "representative", "n", "value"])
        for row in rows:
            writer.writerow([row["kind"], row["representative"], row["n"], row["value"]])
        print(buf.getvalue().rstrip("\n"))
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

    Full scan for small n; for larger n only the structural family is listed,
    checked by one evaluation per super orbit.
    """
    orbits = {}  # representative -> super multiplet of a corollary-6 shape
    for a in coeff_engine.corollary6_shapes(n):
        rec = symmetry.super_multiplet(coeff_engine.multiplicities(a))
        orbits[rec.representative] = rec
    family = {vec for rec in orbits.values() for vec, _ in rec.members}
    if n <= 8:
        return [(coeff_engine.indices_from_multiplicities(m),
                 "corollary6" if m in family else "accidental")
                for m in expansion.expand(n).zero_keys()]
    for rep in orbits:
        assert coeff_engine.coefficient(coeff_engine.indices_from_multiplicities(rep)) == 0
    return [(a, "corollary6")
            for a in sorted(map(coeff_engine.indices_from_multiplicities, family))]


def cmd_zeros(args):
    if args.N < 2 or args.N > expansion.MAX_N:
        raise UsageError("N out of range")
    report = zeros_report(args.N)
    if args.format == "json":
        doc = {"N": args.N,
               "zeros": [{"indices": list(a), "kind": kind} for a, kind in report]}
        print(json.dumps(doc, separators=(",", ":")))
    else:
        for a, kind in report:
            print("%s %s" % ("".join(str(x) for x in a), kind))
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
        poly = expansion.expand(n)
        if n % 2 == 1 and expansion.evaluate(poly, [1] * n) != 0:
            return "det of all-ones not zero at N=%d" % n
        want = (n - 1) * (1 if n % 2 else -1)
        if expansion.evaluate(poly, [0] + [1] * (n - 1)) != want:
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
            if coeff_engine.coefficient(shifted) * sign != c:
                return "shift covariance violated at N=%d %s" % (n, m)
    return None


def _verify_counting(lo, hi):
    for n in range(lo, hi + 1):
        if symmetry.count_solutions_F(n) != len(symmetry.valid_vectors(n)):
            return "solution count formula wrong at N=%d" % n
    return None


# suite -> (check over dimensions lo..hi, the dimensions it can check)
SUITES = {
    "oracle": (_verify_oracle, 3, 8),
    "identities": (_verify_identities, 2, 9),
    "lemmas": (_verify_lemmas, 3, 8),
    "symmetry": (_verify_symmetry, 2, 7),
    "counting": (_verify_counting, 2, 10),
}


def cmd_verify(args):
    lo, hi = _parse_range(args.range)
    if lo > hi:
        raise UsageError("empty range %d..%d" % (lo, hi))
    names = [args.suite] if args.suite else sorted(SUITES)
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


def build_parser():
    parser = argparse.ArgumentParser(prog="circulant",
                                     description="exact circulant determinant expansions")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")

    p = sub.add_parser("coeff", help="one expansion coefficient")
    p.add_argument("N", type=int)
    p.add_argument("indices")
    p.add_argument("--mult", action="store_true",
                   help="read the argument as a multiplicity vector")
    p.add_argument("--check", action="store_true",
                   help="compare with the arrangement-counting oracle (N <= %d)"
                   % CHECK_MAX_N)
    common(p)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("expand", help="full determinant expansion")
    p.add_argument("N", type=int)
    p.add_argument("--include-zeros", action="store_true")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("multiplets", help="orbit table")
    p.add_argument("N", type=int)
    common(p)
    p.set_defaults(func=cmd_multiplets)

    p = sub.add_parser("zeros", help="vanishing coefficients")
    p.add_argument("N", type=int)
    common(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("range")
    p.add_argument("--suite")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


_parser = None  # built by the first main call, then reused


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if not getattr(args, "func", None):
        _parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
