"""Command line driver: eval, form, compare, enumerate, verify."""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from . import diagrams as dg
from . import signatures as sg
from . import verification as vf
from .generators import HALFSPEK, MSPEK, SPEK, THEORIES, GeneratorId, resolve
from .relations import CapacityError, max_arity

# json (jsonl output only) and the random diagram generator (compare
# --random only) are imported where they are used, so that a text run
# starts without them.

EXIT_PARSE = 1
EXIT_CAPACITY = 2
EXIT_THEORY = 3
EXIT_MISMATCH = 4
EXIT_VERIFY = 5
EXIT_ENV = 6
EXIT_USAGE = 7

SUITES = ("kbp", "laws", "duality", "cardinality")


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_USAGE on a bad command line (2 is the capacity code)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _read_diagram(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except UnicodeDecodeError as exc:
        print("%s: not UTF-8 text: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        return dg.parse(text)
    except dg.DiagramError as exc:
        print("%s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _read_spek_diagram(path):
    d = _read_diagram(path)
    if d.theory != SPEK:
        print("error: closed forms are defined for spek diagrams only",
              file=sys.stderr)
        raise SystemExit(EXIT_THEORY)
    return d


def cmd_eval(args):
    r = dg.evaluate(_read_diagram(args.path))
    if args.format == "jsonl":
        import json
        for a, b in sorted(r.pairs):
            print(json.dumps({"in": list(a), "out": list(b)}))
    else:
        print(r.to_text(), end="")
    return 0


def cmd_form(args):
    form, _ = sg.state_form(_read_spek_diagram(args.path))
    lines = list(filter(None, form.system.to_text().splitlines()))
    if args.format == "jsonl":
        import json
        for sig, count in form.walk():
            print(json.dumps({"signature": [[p, t] for p, t in sig],
                              "count": count}))
        for line in lines:
            print(json.dumps({"constraint": line}))
    else:
        for line in form.lines():
            print(line)
        for line in lines:
            print("constraint %s" % line)
    return 0


def _compare_one(d, label, dumps):
    """Whether d's closed form expands to its evaluated state; a mismatch
    is printed as a jsonl record by ``dumps``, or as text without it."""
    truth = dg.evaluate(dg.as_state(d))
    form, _ = sg.state_form(d)
    got = form.expand()
    if got == truth:
        return True
    if dumps:
        print(dumps({"mismatch": label, "evaluated": truth.to_text(),
                     "closed_form": form.to_text()}))
        return False
    print("MISMATCH %s" % label)
    print("evaluated:")
    print(truth.to_text(), end="")
    print("closed form:")
    print(form.to_text(), end="")
    return False


def cmd_compare(args):
    files = [(_read_spek_diagram(path), path) for path in args.paths]
    dumps = None
    if args.format == "jsonl":
        from json import dumps
    if args.random:
        from .generate import random_diagram
    ok = True
    for k in range(args.random):
        d = random_diagram(args.seed + k)
        ok = _compare_one(d, "seed=%d" % (args.seed + k), dumps) and ok
    for d, path in files:
        ok = _compare_one(d, path, dumps) and ok
    if ok:
        print(dumps({"result": "OK"}) if dumps else "OK")
    return 0 if ok else EXIT_MISMATCH


def cmd_enumerate(args):
    if args.format == "jsonl":
        import json
    made = None         # the outermost directory this run creates
    if args.out:
        head = os.path.abspath(args.out)
        while not os.path.lexists(head):
            made, head = head, os.path.dirname(head)
    try:
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        for n, count in vf.closed_form_counts(args.theory, args.arity).items():
            if args.format == "jsonl":
                print(json.dumps({"legs": n, "states": count}))
            else:
                print("legs=%d states=%d" % (n, count))
            if n == 1:
                for s in vf.enumerate_states(args.theory, 1)[1]:
                    row = sorted(t[0] for _, t in s.pairs)
                    if args.format == "jsonl":
                        print(json.dumps({"state": row}))
                    else:
                        print("  {%s}" % ",".join(str(v) for v in row))
        if args.out:
            report = vf.enumerate_closure(args.theory)
            for (m, n), hom in sorted(report.hom.items()):
                path = os.path.join(args.out, "hom_%d_%d.rel" % (m, n))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(r.to_text() for r in hom)
            if args.format == "jsonl":
                print(json.dumps({"closure_report": args.out}))
            else:
                print("closure report written to %s" % args.out)
        return 0
    except BaseException:
        # a refused or failed run leaves none of the directories it made
        if made:
            shutil.rmtree(made, ignore_errors=True)
        raise


def _verify_lines(suites, arity):
    lines = []

    def check(name, ok, detail=""):
        lines.append(("PASS" if ok else "FAIL", name, detail))

    if "laws" in suites:
        for theory in (SPEK, HALFSPEK):
            d = resolve(GeneratorId("delta", theory))
            e = resolve(GeneratorId("epsilon", theory))
            for law, ok in vf.check_basis_structure(d, e).items():
                check("laws.%s.%s" % (theory, law), ok)
        bad = vf.check_basis_structure(
            resolve(GeneratorId("delta", SPEK)),
            resolve(GeneratorId("bottom_dagger", MSPEK)))
        check("laws.bottom-not-counit", not bad["counit-left"])
        check("laws.ghz-delta", vf.ghz_delta_identity())
    walked = {}     # theory -> its states, balanced states and sizes by n
    for theory in (SPEK, MSPEK, HALFSPEK):
        if "cardinality" in suites or ("kbp" in suites and theory != HALFSPEK):
            states, balanced, sizes = walked[theory] = {}, {}, {}
            for n, rows in vf.row_spaces(theory, arity):
                k = len(rows)      # 2^k states, one per coset
                states[n] = states.get(n, 0) + (1 << k)
                if theory != HALFSPEK:
                    sizes.setdefault(n, set()).add(1 << 2 * n - k)
                    if "kbp" in suites and vf.space_balanced(n, rows):
                        balanced[n] = balanced.get(n, 0) + (1 << k)
    if "kbp" in suites:
        for theory in (SPEK, MSPEK):
            total, ok = (sum(walked[theory][i].values()) for i in (0, 1))
            check("kbp.%s" % theory, ok == total,
                  "%d/%d states balanced" % (ok, total))
    if "cardinality" in suites:
        cs, cm = ({n: sorted(v) for n, v in walked[theory][2].items()}
                  for theory in (SPEK, MSPEK))
        check("cardinality.spek-exact",
              all(c == 1 << n for n, v in cs.items() for c in v), str(cs))
        check("cardinality.mspek-range",
              all(vf._balanced(c, n) for n, v in cm.items() for c in v),
              str(cm))
        for theory in (SPEK, MSPEK, HALFSPEK):
            got = walked[theory][0]
            want = vf.closed_form_counts(theory, arity)
            check("cardinality.%s-count" % theory, got == want,
                  str(got) if got == want
                  else "%s, closed form %s" % (got, want))
    if "duality" in suites:
        for theory in (SPEK, MSPEK, HALFSPEK):
            rep = vf.check_map_state_duality(theory)
            check("duality.%s.bijective" % theory, rep.bijective,
                  "%d states, %d maps" % (rep.n_states, rep.n_maps))
            check("duality.%s.identity-diagonal" % theory,
                  rep.identity_matches_diagonal)
    return lines


def cmd_verify(args):
    suites = SUITES if args.suite == "all" else (args.suite,)
    lines = _verify_lines(suites, args.arity)
    if args.format == "jsonl":
        import json
    ok = True
    for status, name, detail in lines:
        ok = ok and status == "PASS"
        if args.format == "jsonl":
            print(json.dumps({"check": name, "status": status,
                              "detail": detail}))
        else:
            print(("%s %s %s" % (status, name, detail)).rstrip())
    return 0 if ok else EXIT_VERIFY


def main(argv=None):
    parser = _Parser(
        prog="spekcat",
        description="evaluate and analyse toy-theory string diagrams")
    parser.add_argument("--format", choices=["text", "jsonl"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a diagram file to a relation")
    p.add_argument("path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("form", help="closed-form block signatures of a diagram")
    p.add_argument("path")
    p.set_defaults(func=cmd_form)

    p = sub.add_parser("compare",
                       help="check closed form against brute force")
    p.add_argument("paths", nargs="*")
    p.add_argument("--random", type=int, default=0, metavar="COUNT")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("enumerate", help="enumerate states of a theory")
    p.add_argument("--theory", choices=THEORIES, default=SPEK)
    p.add_argument("--arity", type=int, default=1)
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run consistency suites")
    p.add_argument("--suite",
                   choices=SUITES + ("all",),
                   default="all")
    p.add_argument("--arity", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    if getattr(args, "arity", 1) < 1:
        parser.error("--arity must be at least 1")
    if getattr(args, "random", 0) < 0:
        parser.error("--random must be at least 0")
    if args.command == "compare" and not (args.paths or args.random):
        parser.error("compare needs a diagram file or --random COUNT")
    try:
        max_arity()
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ENV
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CapacityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        # reported below, once leaving this block has dropped the traceback
        # and with it the frames that hold the work
        pass
    except UnicodeEncodeError as exc:
        print("error: the output cannot be written as %s: %s"
              % (sys.stdout.encoding, exc), file=sys.stderr)
        return EXIT_ENV
    except BrokenPipeError:
        # the reader has gone (e.g. `| head`): stop quietly, and send the
        # rest of the buffered output, flushed at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:              # e.g. enumerate --out onto a file
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ENV
    print("error: out of memory", file=sys.stderr)
    return EXIT_CAPACITY


if __name__ == "__main__":
    raise SystemExit(main())
