"""Command line front end for scenario documents.

Verbs select which task kinds run; `report` runs everything.  Exit code 0
means every executed task passed, 1 means some axiom or certificate check
failed (or a task errored), 2 means the input could not be parsed.
"""

import argparse
import sys

from .scenario import ParseError, emit, parse_scenario, run

_VERB_KINDS = {
    "validate": ("validate",),
    "homology": ("homology",),
    "measure": ("measure",),
    "induced": ("induced", "hopf_galois"),
    "report": None,
}


def _degree(text):
    """argparse type of --max-degree: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % n)
    return n


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="hopfcyclic",
        description="run checks and homology tasks from a scenario file")
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb in ("validate", "homology", "measure", "induced", "report"):
        sp = sub.add_parser(verb)
        sp.add_argument("scenario", help="path to a scenario JSON file")
        sp.add_argument("--max-degree", type=_degree, default=None,
                        help="override the max_degree of every task")
        sp.add_argument("--field", default=None,
                        help="override the ground field, e.g. Q or F5")
        sp.add_argument("--format", choices=("json", "text"),
                        default="json")
        sp.add_argument("-o", "--output", default=None,
                        help="write the report here instead of stdout")
    args = ap.parse_args(argv)
    try:
        doc = parse_scenario(args.scenario, field_override=args.field)
    except (ParseError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    report = run(doc, kinds=_VERB_KINDS[args.verb],
                 max_degree=args.max_degree)
    text = emit(report, args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        sys.stdout.write(text + "\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
