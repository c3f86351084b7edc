"""Command-line interface.

Commands: analyze | reduce | k | corpus | zoo | example-gl52.
Exit codes: 0 ok, 2 parse error, 3 budget exceeded, 4 invalid prime set,
5 verification/agreement failure, 6 bad subgroup spec.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import zoo
from .arith import PiSet
from .backtrack import BudgetExceededError, VerificationError, centralizer
from .config import DEFAULT_BUDGETS, Budgets
from .groups import PermGroup, join_subgroups
from .hall import classify_ECD, k_induced
from .perms import Perm
from .reduction import compare_with_oracle, cpi_reduce
from .structure import derived_subgroup, is_normal, minimal_normal_subgroups

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_BAD_PI = 4
EXIT_VERIFY = 5
EXIT_BAD_SUBGROUP = 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def load_group_file(path: Path) -> PermGroup:
    """Parse the JSON group file format; errors carry line and generator
    index."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE,
                       f"{path}: JSON error at line {exc.lineno}: {exc.msg}")
    if not isinstance(data, dict):
        raise CliError(EXIT_PARSE, f"{path}: top level must be a JSON object")
    for key in ("degree", "generators"):
        if key not in data:
            raise CliError(EXIT_PARSE, f"{path}: missing field {key!r}")
    degree = data["degree"]
    # JSON's true and false load as bool, a subclass of int
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise CliError(EXIT_PARSE, f"{path}: degree must be a positive integer")
    if not isinstance(data["generators"], list):
        raise CliError(EXIT_PARSE, f"{path}: generators must be a list")
    gens = []
    for i, images in enumerate(data["generators"]):
        try:
            gens.append(Perm(images))
        except (ValueError, TypeError) as exc:
            raise CliError(EXIT_PARSE, f"{path}: generator #{i} invalid: {exc}")
        if gens[-1].degree != degree:
            raise CliError(EXIT_PARSE,
                           f"{path}: generator #{i} has degree "
                           f"{gens[-1].degree}, expected {degree}")
    return PermGroup(degree, gens, name=data.get("name", path.stem))


def load_manifest(path: Path) -> list[dict]:
    """The entries of a corpus manifest file; errors name the entry and
    the field."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"bad manifest {path}: {exc}")
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise CliError(EXIT_PARSE, f"bad manifest {path}: top level must be "
                                   f"an object with an 'entries' list")
    for i, e in enumerate(entries):
        where = f"bad manifest {path}: entry #{i}"
        for key in ("name", "pi", "expected"):
            if not isinstance(e, dict) or key not in e:
                raise CliError(EXIT_PARSE, f"{where}: missing field {key!r}")
        if not isinstance(e["name"], str) or e["name"] not in zoo.ZOO_NAMES:
            raise CliError(EXIT_PARSE,
                           f"{where}: unknown zoo name {e['name']!r}")
        if not isinstance(e["pi"], str):
            raise CliError(EXIT_PARSE, f"{where}: pi must be a string")
        parse_pi(e["pi"])
        exp = e["expected"]
        # type(...) is int: a JSON boolean is no count
        if not (isinstance(exp, dict)
                and all(isinstance(exp.get(f), bool) for f in "ECD")
                and type(exp.get("k")) is int and exp["k"] >= 0):
            raise CliError(EXIT_PARSE, f"{where}: 'expected' must be an "
                                       f"object with boolean E, C and D and "
                                       f"an integer k >= 0")
    return entries


def resolve_group(spec: str) -> tuple[PermGroup, dict]:
    if spec in zoo.ZOO_NAMES:
        return zoo.build_named(spec), {"zoo": spec}
    path = Path(spec)
    if path.exists():
        return load_group_file(path), {"file": str(path)}
    raise CliError(EXIT_PARSE,
                   f"{spec!r} is neither a zoo name nor an existing file")


def resolve_normal(G: PermGroup, spec: str, budgets: Budgets,
                   seed: int) -> PermGroup:
    """Named constructions for the normal-subgroup argument; a subgroup
    given by zoo name or file must be normal."""
    if spec == "derived":
        return derived_subgroup(G)
    if spec == "center":
        return centralizer(G, G, budgets)
    if spec == "socle":
        return join_subgroups(G, minimal_normal_subgroups(G, budgets, seed))
    kind, _, arg = spec.partition(":")
    if kind == "minimal":
        try:
            idx = int(arg)
        except ValueError:
            raise CliError(EXIT_BAD_SUBGROUP,
                           f"minimal:{arg} is not an integer index")
        mins = minimal_normal_subgroups(G, budgets, seed)
        if not 0 <= idx < len(mins):
            raise CliError(EXIT_BAD_SUBGROUP,
                           f"minimal:{idx} out of range (found {len(mins)})")
        return mins[idx]
    if kind == "zoo" and arg not in zoo.ZOO_NAMES:
        raise CliError(EXIT_BAD_SUBGROUP, f"unknown zoo name {arg!r}")
    if kind in ("zoo", "file"):
        H = zoo.build_named(arg) if kind == "zoo" \
            else load_group_file(Path(arg))
        if H.degree != G.degree:
            raise CliError(EXIT_BAD_SUBGROUP,
                           f"{kind} subgroup degree {H.degree} does not "
                           f"match the group's {G.degree}")
        if not H.is_subgroup_of(G) or not is_normal(G, H):
            raise CliError(EXIT_BAD_SUBGROUP,
                           f"subgroup spec {spec!r} is not normal")
        return H
    raise CliError(EXIT_BAD_SUBGROUP, f"unknown subgroup spec {spec!r}")


def parse_pi(text: str) -> PiSet:
    try:
        return PiSet.parse(text)
    except ValueError as exc:
        raise CliError(EXIT_BAD_PI, str(exc))


def _budgets(args) -> Budgets:
    return Budgets(node_budget=args.budget_nodes,
                   order_budget=args.budget_order)


def _report(args, command: str, input_desc: dict, pi: PiSet | None,
            work, present, head: str | None = None) -> int:
    """Run one command's computation, report it and return the exit code.

    work() is timed; a budget error it raises is an answer, reported as
    its verdict with exit 3.  Otherwise present(value, ms) gives the
    results, any further timings, the summary text and the exit code.

    The `--json` report schema is one for every command: `schema_version`,
    `command`, `input`, `pi`, `seed`, `budgets`, `results` and `timings`.
    Verdict fields are tri-state: true, false, or a "budget_exceeded:<kind>"
    string.  The results section is deterministic for fixed seed and
    budgets; timings live outside it so reports can be compared byte for
    byte."""
    t0 = time.perf_counter()
    try:
        value, verdict = work(), None
    except BudgetExceededError as exc:
        value, verdict = None, exc.verdict
    ms = int((time.perf_counter() - t0) * 1000)
    if verdict is None:
        results, timings, text, code = present(value, ms)
    else:
        results, timings, text, code = ({"verdict": verdict}, {},
                                        f"{head or command}: {verdict}",
                                        EXIT_BUDGET)
    if args.json:
        # example-gl52's time is example_ms
        clock = command.partition("-")[0] + "_ms"
        report = {"schema_version": SCHEMA_VERSION, "command": command,
                  "input": input_desc,
                  "pi": None if pi is None else pi.key(), "seed": args.seed,
                  "budgets": asdict(_budgets(args)), "results": results,
                  "timings": {clock: ms, **timings}}
        Path(args.json).write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    print(text)
    return code


def _query(args, command: str, compute, present) -> int:
    """Run one query on the group and prime set of the command line:
    compute(G, pi, budgets, seed), whose value present(value) reports."""
    pi = parse_pi(args.pi)
    G, input_desc = resolve_group(args.group)
    return _report(args, command, input_desc, pi,
                   lambda: compute(G, pi, _budgets(args), args.seed),
                   lambda value, _ms: present(value),
                   head=f"{command} {args.group}")


# -- commands ------------------------------------------------------------------


def cmd_analyze(args) -> int:
    def present(rep):
        classes = [{"order": H.order(), "orbit_sizes": list(H.orbit_sizes()),
                    "class_size": size,
                    "generators": [list(g.images) for g in H.generators]}
                   for H, size in zip(rep.classes.class_reps,
                                      rep.classes.class_sizes)]
        return ({**rep.flags(), "hall_classes": classes}, {},
                f"analyze {args.group} pi={{{args.pi}}}: "
                f"E={rep.E} C={rep.C} D={rep.D} k={rep.k}", EXIT_OK)

    return _query(args, "analyze", classify_ECD, present)


def cmd_reduce(args) -> int:
    def present_trace(trace):
        witness = trace.hall_witness.order() if trace.hall_witness else None
        return ({"trace": trace.to_dict(), "verdict": trace.verdict}, {},
                f"reduce {args.group} pi={{{args.pi}}}: "
                f"verdict={trace.verdict}"
                + (f" hall_order={witness}" if witness else ""), EXIT_OK)

    def present_comparison(cmp):
        results = cmp.to_dict()
        if cmp.trace is not None:
            results["trace"] = cmp.trace.to_dict()
        code = {False: EXIT_VERIFY, None: EXIT_BUDGET}.get(cmp.agree, EXIT_OK)
        return (results, cmp.timings_ms,
                f"reduce {args.group} pi={{{args.pi}}}: "
                f"reduction={cmp.reduction_verdict} "
                f"oracle={cmp.oracle_verdict} agree={cmp.agree}", code)

    if args.compare_oracle:
        return _query(args, "reduce", compare_with_oracle, present_comparison)
    return _query(args, "reduce", cpi_reduce, present_trace)


def cmd_k(args) -> int:
    def compute(G, pi, budgets, seed):
        return k_induced(G, resolve_normal(G, args.normal, budgets, seed), pi,
                         budgets, seed)

    def present(rep):
        results = {
            "normal_subgroup": {"spec": args.normal,
                                "order": rep.normal_subgroup.order()},
            "k_induced": rep.k_induced,
            "k_total": rep.k_total,
            "e_holds": rep.e_holds,
            "induced_reps": [
                {"order": M.order(), "orbit_sizes": list(M.orbit_sizes())}
                for M in rep.induced_class_reps],
        }
        return results, {}, (f"k {args.group} normal={args.normal} "
                             f"pi={{{args.pi}}}: k_induced={rep.k_induced} "
                             f"k_total={rep.k_total}"), EXIT_OK

    return _query(args, "k", compute, present)


def cmd_corpus(args) -> int:
    from .suites import run_corpus
    entries = load_manifest(Path(args.manifest)) if args.manifest else None

    def present(run, ms):
        lines = [f"{'entry':<14}{'pi':<8}{'agree':<7}{'manifest':<9}"]
        for r in run.entries:
            lines.append(f"{r.name:<14}{r.pi:<8}{str(r.agree):<7}"
                         f"{str(r.matches_manifest):<9}")
        lines.append(f"{'suite':<18}{'checked':<9}result")
        for s in run.suites:
            status = ("pass" if s.passed else
                      "FAIL: " + "; ".join(s.violations[:2]) if s.violations
                      else "; ".join(s.notes))
            lines.append(f"{s.key:<18}{s.checked:<9}{status}")
        # a budget verdict is no failure, but no pass either
        failed = (any(s.violations for s in run.suites)
                  or any(r.agree is False
                         or (isinstance(r.observed, dict)
                             and not r.matches_manifest)
                         for r in run.entries))
        exceeded = (any(s.budget_exceeded for s in run.suites)
                    or any(r.agree is None or isinstance(r.observed, str)
                           for r in run.entries))
        code, summary = (EXIT_VERIFY, "FAILURES PRESENT") if failed else \
            (EXIT_BUDGET, "budget exceeded") if exceeded else \
            (EXIT_OK, "all suites pass")
        lines.append(f"corpus: {summary} ({ms} ms)")
        return (run.to_dict(), {"entries": run.entry_timings()},
                "\n".join(lines), code)

    return _report(args, "corpus", {"manifest": args.manifest or "builtin"},
                   None, lambda: run_corpus(entries=entries,
                                            budgets=_budgets(args),
                                            seed=args.seed, jobs=args.jobs),
                   present)


def cmd_zoo(args) -> int:
    if args.zoo_action == "list":
        manifest = zoo.corpus_manifest()
        print(f"{'name':<14}{'pi':<8}{'order':<9}{'E':<3}{'C':<3}{'D':<3}"
              f"{'k':<4}provenance")
        for e in manifest:
            f = e["expected"]
            print(f"{e['name']:<14}{e['pi']:<8}{e['order']:<9}"
                  f"{int(f['E']):<3}{int(f['C']):<3}{int(f['D']):<3}"
                  f"{f['k']:<4}{e['provenance']}")
        extra = sorted(set(zoo.ZOO_NAMES) - {e["name"] for e in manifest})
        if extra:
            print("other zoo names:", ", ".join(extra))
        return EXIT_OK
    if args.zoo_action == "emit":
        if args.name not in zoo.ZOO_NAMES:
            raise CliError(EXIT_PARSE, f"unknown zoo name {args.name!r}")
        data = zoo.group_file_dict(args.name)
        text = json.dumps(data, indent=1, sort_keys=True) + "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"wrote {args.name} to {args.out}")
        else:
            print(text, end="")
        return EXIT_OK
    raise CliError(EXIT_PARSE, "zoo needs an action: list | emit")


def cmd_example(args) -> int:
    from .example_gl52 import ExampleFailure, run_example

    def present(results, ms):
        lines = []
        for c in results["claims"]:
            status = "assumed" if c.get("assumed") else \
                "ok" if c["ok"] else "FAIL"
            lines.append(f"  [{status}] {c['name']}: {c['detail']}")
        assumed = sum(1 for c in results["claims"] if c.get("assumed"))
        lines.append(f"example-gl52: all {len(results['claims'])} claims "
                     f"verified ({ms} ms), {assumed} of them assumed; "
                     f"{results['exhaustiveness']}")
        return results, {}, "\n".join(lines), EXIT_OK

    try:
        return _report(args, "example-gl52", {"zoo": "gl52hat"},
                       PiSet([2, 3]), lambda: run_example(
                           budgets=_budgets(args), seed=args.seed), present)
    except ExampleFailure as exc:
        print(f"example-gl52: FAILED claim {exc.claim}: {exc}")
        return EXIT_VERIFY


# -- argument plumbing ------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, with_pi: bool = True) -> None:
    if with_pi:
        p.add_argument("--pi", required=True,
                       help="comma-separated primes, e.g. 2,3")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget-nodes", type=_positive_int,
                   default=DEFAULT_BUDGETS.node_budget)
    p.add_argument("--budget-order", type=_positive_int,
                   default=DEFAULT_BUDGETS.order_budget)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the full JSON report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pihall",
        description="Hall subgroup analysis for finite permutation groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="existence/conjugacy/dominance flags")
    p.add_argument("group", help="zoo name or group file path")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reduce", help="chief-series decision procedure")
    p.add_argument("group")
    p.add_argument("--compare-oracle", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("k", help="induced Hall class count over a normal "
                                 "subgroup")
    p.add_argument("group")
    p.add_argument("--normal", required=True,
                   help="derived | center | socle | minimal:<i> | "
                        "zoo:<name> | file:<path>")
    _add_common(p)
    p.set_defaults(func=cmd_k)

    p = sub.add_parser("corpus", help="run the validation corpus and suites")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--manifest", default=None)
    _add_common(p, with_pi=False)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("zoo", help="list or emit built-in groups")
    p.add_argument("zoo_action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("example-gl52",
                       help="reproduce the GL5(2) extension example")
    _add_common(p, with_pi=False)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
