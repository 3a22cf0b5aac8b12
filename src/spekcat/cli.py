"""Command line driver: eval, form, compare, enumerate, verify.  It reads
the arguments and diagram files, calls the library, maps its errors to exit
codes, and prints every line through one printer for text or jsonl."""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import diagrams as dg
from . import signatures as sg
from . import verification as vf
from .generators import SPEK, THEORIES
from .relations import CapacityError, max_arity

# json (by the jsonl printer only), the random diagram generator (compare
# --random only) and shutil (enumerate --out only) are imported where they
# are used, so that a text run starts without them.

EXIT_PARSE = 1
EXIT_CAPACITY = 2
EXIT_THEORY = 3
EXIT_MISMATCH = 4
EXIT_VERIFY = 5
EXIT_ENV = 6
EXIT_USAGE = 7


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


def _printer(fmt):
    """The one place output takes its format: ``emit(text, record)``
    prints a line's text under text and its record as one json line
    under jsonl.  Either is None where its format has no such line, or a
    function that makes the texts or records of several lines, called
    only by the format that prints them."""
    if fmt == "text":
        side, render = 0, str
    else:
        import json
        side, render = 1, json.dumps

    def emit(text, record):
        made = (text, record)[side]
        if callable(made):
            for item in made():
                print(render(item))
        elif made is not None:
            print(render(made))
    return emit


def cmd_eval(args):
    r = dg.evaluate(_read_diagram(args.path))
    # one print of the whole text: a row the output cannot encode leaves
    # no partial output
    args.emit(lambda: [r.to_text()[:-1]],
              lambda: ({"in": a, "out": b} for a, b in sorted(r.pairs)))
    return 0


def cmd_form(args):
    form, _ = sg.state_form(_read_spek_diagram(args.path))
    args.emit(form.lines, lambda: ({"signature": sig, "count": count}
                                   for sig, count in form.walk()))
    for line in filter(None, form.system.to_text().splitlines()):
        args.emit("constraint %s" % line, {"constraint": line})
    return 0


def cmd_compare(args):
    """Checks that each diagram's closed form expands to its evaluated
    state.  The form is expanded first: a state too wide to expand is
    refused before any contraction."""
    files = [(_read_spek_diagram(path), path) for path in args.paths]
    if args.random:
        from .generate import random_diagram
    seeds = range(args.seed, args.seed + args.random)
    ok = True
    for d, label in itertools.chain(
            ((random_diagram(k), "seed=%d" % k) for k in seeds), files):
        form, _ = sg.state_form(d)
        got = form.expand()
        truth = dg.evaluate(dg.as_state(d))
        if got != truth:
            ok = False
            evaluated, closed_form = truth.to_text(), form.to_text()
            args.emit("MISMATCH %s\nevaluated:\n%sclosed form:\n%s"
                      % (label, evaluated, closed_form[:-1]),
                      {"mismatch": label, "evaluated": evaluated,
                       "closed_form": closed_form})
    if ok:
        args.emit("OK", {"result": "OK"})
    return 0 if ok else EXIT_MISMATCH


def cmd_enumerate(args):
    made = None         # the outermost directory this run creates
    if args.out:
        import shutil   # not in the handler below, where it could fail
        head = os.path.abspath(args.out)
        while not os.path.lexists(head):
            made, head = head, os.path.dirname(head)
    try:
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        for n, count in vf.closed_form_counts(args.theory, args.arity).items():
            args.emit("legs=%d states=%d" % (n, count),
                      {"legs": n, "states": count})
            if n == 1:
                for s in vf.enumerate_states(args.theory, 1)[1]:
                    row = sorted(t[0] for _, t in s.pairs)
                    args.emit("  {%s}" % ",".join(map(str, row)),
                              {"state": row})
        if args.out:
            report = vf.enumerate_closure(args.theory)
            for (m, n), hom in sorted(report.hom.items()):
                path = os.path.join(args.out, "hom_%d_%d.rel" % (m, n))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(r.to_text() for r in hom)
            args.emit("closure report written to %s" % args.out,
                      {"closure_report": args.out})
        return 0
    except BaseException:
        # a refused or failed run leaves none of the directories it made
        if made:
            shutil.rmtree(made, ignore_errors=True)
        raise


def cmd_verify(args):
    suites = vf.SUITES if args.suite == "all" else (args.suite,)
    ok = True
    for status, name, detail in vf.verify(suites, args.arity):
        ok = ok and status == "PASS"
        args.emit(("%s %s %s" % (status, name, detail)).rstrip(),
                  {"check": name, "status": status, "detail": detail})
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
                   choices=vf.SUITES + ("all",),
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
    args.emit = _printer(args.format)
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
