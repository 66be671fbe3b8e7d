"""Command-line surface: construct groups, compute multipliers and
capability, evaluate the bound formulas, and run the verification
suites with deterministic text/JSON/CSV output.

Exit codes: 0 success, 1 check failure, 2 parse or parameter error,
3 computation assertion failure, 141 stdout closed by its reader (128 +
SIGPIPE, the code a shell gives a process that SIGPIPE ends).
"""

import argparse
import csv
import json
import os
import sys

from . import catalog, verify
from .capability import epicenter, epicenter_crosscheck, exterior_pair
from .catalog import FamilyParameterError, PresentationFormatError
from .homology import (abelian_multiplier, be_sequence,
                       central_quotient_section, schur_multiplier, stem_cover,
                       thm25_check)
from .pcp import (AbelianType, derived_subgroup, direct_product, log_p,
                  shared_presentations, structure_stats)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3
EXIT_BROKEN_PIPE = 141

_PARAM_FLAGS = tuple(dict.fromkeys(
    name for row in catalog.FAMILIES.values() for name in row.params))


class CliInputError(ValueError):
    """Bad command-line input; maps to exit code 2."""


def _add_spec_args(sub):
    sub.add_argument("--file", help="presentation file (JSON schema)")
    families = ", ".join(" --".join((name, *row.params))
                         for name, row in catalog.FAMILIES.items())
    sub.add_argument("--family",
                     help=f"family, with its parameter flags: {families}")
    sub.add_argument("--p", type=int, help="prime (with --family)")
    for flag in _PARAM_FLAGS:
        sub.add_argument(f"--{flag}", type=int, help=argparse.SUPPRESS)


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")


def _load_spec(args):
    """Resolve --file/--family input into (presentation, description)."""
    if bool(args.file) == bool(args.family):
        raise CliInputError("exactly one of --file or --family is required")
    if args.file:
        return catalog.load(args.file), f"file:{args.file}"
    if args.p is None:
        raise CliInputError("--family requires --p")
    params = {k: getattr(args, k) for k in _PARAM_FLAGS
              if getattr(args, k) is not None}
    P = catalog.make(args.family, args.p, **params)
    return P, catalog.family_tag(args.family.upper(), args.p, params)


def _flatten(record, prefix=""):
    out = []
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.extend(_flatten(value, f"{name}."))
        else:
            out.append((name, value))
    return out


def _emit_record(record, fmt, out):
    if fmt == "json":
        out.write(json.dumps(record, indent=2) + "\n")
    elif fmt == "csv":
        flat = _flatten(record)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([k for k, _ in flat])
        writer.writerow([_csv_cell(v) for _, v in flat])
    else:
        for key, value in _flatten(record):
            out.write(f"{key}: {_text_cell(value)}\n")


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return " ".join(str(x) for x in v)
    return v


def _text_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


# -- subcommands -----------------------------------------------------


def cmd_group(args, out):
    P, desc = _load_spec(args)
    st = structure_stats(P)
    record = {
        "group": desc,
        "order": P.order,
        "n": st.n,
        "k": st.k,
        "d": st.d,
        "class": st.nilpotency_class,
        "quotient": list(st.quotient_type.divisors),
    }
    if args.format == "json":
        record["presentation"] = json.loads(catalog.serialize(P))
        _emit_record(record, "json", out)
    else:
        _emit_record(record, args.format, out)
        if args.format == "text":
            out.write(catalog.serialize(P))
    return EXIT_OK


def cmd_multiplier(args, out):
    P, desc = _load_spec(args)
    mult = schur_multiplier(P)
    record = {
        "group": desc,
        "multiplier": list(mult.divisors),
        "order": mult.order,
    }
    _emit_record(record, args.format, out)
    return EXIT_OK


def cmd_capable(args, out):
    P, desc = _load_spec(args)
    epi = epicenter(P)
    record = {
        "group": desc,
        "capable": not epi.basis,
        "epicenter_order": epi.order,
    }
    _emit_record(record, args.format, out)
    return EXIT_OK


def cmd_bounds(args, out):
    try:
        b = verify.bounds(args.n, args.k, args.d)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    record = {"n": args.n, "k": args.k, "d": args.d,
              "bounds": {name: verify.num(v) for name, v in b.items()}}
    _emit_record(record, args.format, out)
    return EXIT_OK


# -- verification suites ---------------------------------------------


def _catalog_groups(p, deep):
    """Named catalog instances feasible at p, for the verify suites."""
    groups = []
    if p == 2:
        groups += [("D8", catalog.dihedral8()),
                   ("Q8", catalog.quaternion8()),
                   ("MODULAR(n=4)", catalog.modular_group(2, 4)),
                   ("G2(m=2)", catalog.g2(2, 2))]
    else:
        groups += [("E1", catalog.extraspecial_e1(p)),
                   ("G1(n=4)", catalog.g1(p, 4)),
                   ("G2(m=2)", catalog.g2(p, 2)),
                   ("G3", catalog.g3(p)),
                   ("G4(m=2)", catalog.g4(p, 2)),
                   ("G5", catalog.g5(p)),
                   ("MODULAR(n=4)", catalog.modular_group(p, 4)),
                   ("MIN_NONAB_A(2,2)", catalog.min_nonabelian_a(p, 2, 2))]
    if p == 3 and deep:
        groups.append(("G6", catalog.g6()))
    return groups


def _suite_sweep(p, deep):
    sw = verify.sweep_classification(p, deep=deep)
    rows = [
        ("sweep_attainers_equal_classified_families", sw.classification_ok,
         "attainers=" + "|".join(sw.attainers)),
        ("sweep_class2_refined_bound_families", sw.class2_classification_ok,
         "attainers=" + "|".join(sw.class2_refined_attainers)),
    ]
    for entry in sw.entries:
        if entry.report.attains_rai:
            rows.append((f"sweep_attainer_capable[{entry.name}]",
                         entry.report.capable, ""))
    return rows


def _suite_paper(p, deep):
    rows = []
    for name, P in _catalog_groups(p, deep):
        rep = verify.report(P)
        for check in verify.check_attainer_conditions(P):
            if check.applicable:
                rows.append((f"condition[{name}:{check.name}]", check.passed,
                             check.detail))
        if rep.attains_rai and rep.k >= 2:
            qa = verify.check_quotient_attainment(P)
            rows.append((f"quotient_attainment[{name}]", qa.all_ok,
                         f"central={len(qa.central_results)} "
                         f"gamma={len(qa.gamma_results)}"))
    return rows


def _suite_homology(p, deep):
    rows = []
    samples = [(p ** 2, p), (p, p, p), (p ** 3, p ** 2), (p ** 2, p ** 2, p)]
    for divisors in samples:
        A = AbelianType.from_divisors(divisors)
        pres = catalog.cyclic(p, log_p(divisors[0], p))
        for d in divisors[1:]:
            pres = direct_product(pres, catalog.cyclic(p, log_p(d, p)))
        got = schur_multiplier(pres)
        want = abelian_multiplier(A)
        rows.append((f"abelian_oracle[{'x'.join(map(str, divisors))}]",
                     got == want, f"{got} vs {want}"))
    for m in (2, 3):
        got = schur_multiplier(catalog.g2(p, m))
        want = tuple(sorted((p ** (m - 1), p, p), reverse=True))
        rows.append((f"two_generator_family_multiplier[m={m}]",
                     got.divisors == want, f"{got.divisors} vs {want}"))
    for name, P in _catalog_groups(p, deep):
        st = structure_stats(P)
        if st.nilpotency_class == 2:
            be = be_sequence(P)
            rows.append((f"exact_sequence[{name}]", be.ok(),
                         f"kernel={be.kernel_order}"))
        if st.nilpotency_class <= 3 and st.k >= 1:
            if deep or central_quotient_section(P).type.order <= 27:
                w = thm25_check(P)
                rows.append((f"wedge_inequality[{name}]", w.holds,
                             f"{w.lhs_exponent}<={w.rhs_exponent}"))
    return rows


def _suite_capability(p, deep):
    rows = []
    crosschecked = 0
    for name, P in _catalog_groups(p, deep):
        rep = verify.report(P)
        if rep.attains_rai:
            rows.append((f"attainer_capable[{name}]", rep.capable, ""))
        if crosschecked < 5 or not rep.capable:
            rows.append((f"epicenter_cover_independent[{name}]",
                         epicenter_crosscheck(P), ""))
            crosschecked += 1
    if p != 2:
        for m in (2, 3):
            P = catalog.min_nonabelian_a(p, m, m - 1)
            epi = epicenter(P)
            der = derived_subgroup(P)
            rows.append((f"noncapable_epicenter_is_derived[m={m}]",
                         epi == der and epi.order == p,
                         f"epicenter order {epi.order}"))
            a, b = P.gen(0), P.gen(1)
            E = stem_cover(P).E
            wedge = exterior_pair(P, b, a)
            rows.append((f"wedge_power_identity[m={m}]",
                         E.pow(wedge, p ** (m - 1)) == E.identity(), ""))
            rows.append((f"wedge_commutator_identity[m={m}]",
                         exterior_pair(P, a, P.commutator(a, b))
                         == E.identity(), ""))
    return rows


_SUITES = {
    "sweep": (_suite_sweep,),
    "paper": (_suite_paper,),
    "homology": (_suite_homology,),
    "capability": (_suite_capability,),
    "all": (_suite_sweep, _suite_paper, _suite_homology, _suite_capability),
}


def cmd_verify(args, out):
    if args.p not in catalog.TABLE_PRIMES:
        primes = ", ".join(map(str, catalog.TABLE_PRIMES))
        raise CliInputError(f"verify supports p in {primes}; got {args.p}")
    rows = []
    # the suites rebuild the same groups (the catalog instances, G1-G6 in
    # the sweep, the family candidates): each is built and computed once
    with shared_presentations():
        for fn in _SUITES[args.suite]:
            rows.extend(fn(args.p, args.deep))
    failed = [r for r in rows if not r[1]]
    if args.format == "json":
        _emit_record({
            "suite": args.suite,
            "p": args.p,
            "checks": [{"name": n, "pass": ok, "detail": d}
                       for n, ok, d in rows],
            "passed": len(rows) - len(failed),
            "failed": len(failed),
        }, "json", out)
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["name", "pass", "detail"])
        for n, ok, d in rows:
            writer.writerow([n, "true" if ok else "false", d])
    else:
        for n, ok, d in rows:
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({d})" if d and (args.verbose or not ok) else ""
            out.write(f"{status} {n}{suffix}\n")
        out.write(f"{len(rows) - len(failed)} passed, {len(failed)} failed\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -- entry point -----------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pgh",
        description="finite p-group multiplier and capability toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("group", help="construct and describe a group")
    _add_spec_args(sub)
    _add_common(sub)
    sub.set_defaults(fn=cmd_group)

    sub = subs.add_parser("multiplier", help="compute the Schur multiplier")
    _add_spec_args(sub)
    _add_common(sub)
    sub.set_defaults(fn=cmd_multiplier)

    sub = subs.add_parser("capable", help="decide capability via the epicenter")
    _add_spec_args(sub)
    _add_common(sub)
    sub.set_defaults(fn=cmd_capable)

    sub = subs.add_parser("bounds", help="multiplier bound exponents")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(fn=cmd_bounds)

    sub = subs.add_parser("verify", help="run a verification suite")
    sub.add_argument("--suite", choices=sorted(_SUITES), default="all")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--deep", action="store_true",
                     help="include the slowest checks")
    _add_common(sub)
    sub.add_argument("--verbose", action="store_true")
    sub.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        code = args.fn(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`pgh ... | head`): point stdout at devnull
        # so that the interpreter's last flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (CliInputError, FamilyParameterError,
            PresentationFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssertionError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
