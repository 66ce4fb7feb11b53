"""Command-line front end.

Four subcommands: ``analyze`` classifies a correlation table from JSON,
``decompose`` finds a minimal-communication mixture for it, ``sweep``
writes the angle-sweep CSV, and ``demo`` prints named example tables
with their reports.

Exit codes are a stable contract for scripting: 0 success, 1 usage
error, 2 input validation failure, 3 computation/domain failure.  All
numeric output is rendered at 12 significant digits and is deterministic
for a fixed invocation.  One writer, ``_json_value``, prints every JSON
output, byte for byte as ``json.dumps(payload, indent=2, sort_keys=True)``
prints it.
"""

from __future__ import annotations

# Before the standard library: compiled after argparse's modules are
# resident, the qubit layer's compile raises the peak resident set of a
# process without cached bytecode by about 0.1-0.4 MB.
from . import quantum

import argparse
import contextlib
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .correlation import (
    _read_correlation,
    catalog,
    load_correlation,
    pr_box,
    to_json_dict,
)
from .errors import DomainError, NoCrossoverError, SignalBoxError
from .signaling import cloning_violation, randomness_report, unbalanced_pr
from .simulate import (
    _MEASURES,
    _RESIDUAL_TOL,
    _sig12,
    classify,
    decomposition_json_dict,
    lp_min_cost,
    report_json_dict,
    tsirelson_signal_box,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on bad usage; the contract wants 1."""

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one shared parser of this process, built on first use.

    ``run`` parses every argv with it, so callers must not modify it.
    Reuse is safe: ``parse_args`` leaves the parser as it was and fills a
    fresh namespace on each call, every default is immutable, and help
    text is formatted at call time.
    """
    parser = _Parser(
        prog="signalbox",
        description="Classify two-setting correlation tables by their signal deficit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def out(sub, written):
        sub.add_argument("--out", dest="output_path", help=f"write {written} here")

    def table_io(sub, written):
        sub.add_argument("input", nargs="?", help="correlation JSON file")
        sub.add_argument("--in", dest="input_path", help="correlation JSON file")
        out(sub, written)

    analyze = commands.add_parser("analyze", help="classify a correlation table from JSON")
    analyze.set_defaults(handler=cmd_analyze)
    table_io(analyze, "the report")
    analyze.add_argument(
        "--measure",
        choices=_MEASURES,
        default="mutual_info",
        help="signal measure the verdict uses",
    )

    decompose = commands.add_parser(
        "decompose", help="minimal-communication mixture over the strategy catalog"
    )
    decompose.set_defaults(handler=cmd_decompose)
    table_io(decompose, "the weights")
    decompose.add_argument(
        "--tol", type=float, default=_RESIDUAL_TOL,
        help="largest acceptable reconstruction residual",
    )

    sweep = commands.add_parser("sweep", help="angle sweep as CSV")
    sweep.set_defaults(handler=cmd_sweep)
    sweep.add_argument("--theta-min", type=float, default=0.9)
    sweep.add_argument("--theta-max", type=float, default=1.2)
    sweep.add_argument("--steps", type=int, default=61)
    out(sweep, "the CSV")

    demo = commands.add_parser("demo", help="print a named example table")
    demo.set_defaults(handler=cmd_demo)
    demo.add_argument("name", choices=DEMO_NAMES)
    demo.add_argument("--p", type=float, default=0.25, help="mixing weight for the qp demo")
    out(demo, "the demo output")
    return parser


def _emit(text: str, output_path) -> int:
    if output_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"signalbox: cannot write {output_path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _load_or_report(args):
    """The input correlation, or None once the reason is on stderr (exit 2)."""
    if args.input and args.input_path:
        raise _UsageError("give the input file either positionally or via --in, not both")
    path = args.input or args.input_path
    try:
        if path is None:
            return _read_correlation(sys.stdin, "stdin")
        return load_correlation(path)
    except OSError as exc:
        name = "stdin" if path is None else path
        print(f"signalbox: invalid input: cannot read {name}: {exc}", file=sys.stderr)
    except SignalBoxError as exc:
        print(f"signalbox: invalid input: {exc}", file=sys.stderr)
    return None


_float_repr = float.__repr__
_int_repr = int.__repr__
_INF = math.inf


def _json_value(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` prints it.

    ``value`` holds str-keyed dicts, lists, floats, bools, ints and
    strings; ``indent`` is the newline and spaces that start its line.
    Given an indent, CPython before 3.13 runs json's pure-Python encoder;
    this writer takes its steps, but builds each container with one join.
    """
    if isinstance(value, float):
        if -_INF < value < _INF:
            return _float_repr(value)
        raise DomainError(
            "output has a non-finite number "
            f"(Out of range float values are not JSON compliant: {value!r})"
        )
    if isinstance(value, str):
        return _encode_str(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_repr(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _encode_str(key) + ": " + _json_value(item, inner)
            for key, item in sorted(value.items())
        ]) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _json_value(item, inner) for item in value
        ]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """Strict JSON: a NaN or infinity raises DomainError, never prints."""
    return _json_value(payload, "\n") + "\n"


def cmd_analyze(args) -> int:
    table = _load_or_report(args)
    if table is None:
        return 2
    text = _json_text(report_json_dict(classify(table, measure=args.measure)))
    return _emit(text, args.output_path)


def cmd_decompose(args) -> int:
    # A NaN or infinite tolerance would switch the residual check off.
    if not math.isfinite(args.tol):
        raise _UsageError("decompose needs a finite --tol")
    table = _load_or_report(args)
    if table is None:
        return 2
    decomposition = lp_min_cost(table)
    if decomposition.residual > args.tol:
        raise DomainError(
            f"reconstruction residual {decomposition.residual} exceeds --tol {args.tol}"
        )
    text = _json_text(decomposition_json_dict(decomposition))
    return _emit(text, args.output_path)


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise _UsageError("sweep needs --steps of at least 2")
    if args.steps > quantum.MAX_SWEEP_STEPS:
        raise _UsageError(f"sweep allows --steps of at most {quantum.MAX_SWEEP_STEPS}")
    if not args.theta_max > args.theta_min:
        raise _UsageError("sweep needs --theta-min strictly below --theta-max")
    rows = quantum.theta_sweep(args.theta_min, args.theta_max, args.steps)
    text = quantum.sweep_csv(rows)
    with contextlib.suppress(NoCrossoverError):
        text += "# crossover=%.12g\n" % quantum.find_crossover(args.theta_min, args.theta_max)
    return _emit(text, args.output_path)


def _table_payload(table) -> dict:
    return {"table": to_json_dict(table), "report": report_json_dict(classify(table))}


def _sigma_payload(p: float) -> dict:
    state, a0, a1, b0, b1 = quantum.sigma_settings()
    table = quantum.sequential_correlation(state, a0, a1, b0, b1)
    report = classify(table)
    rho0, rho1 = (quantum.post_measurement_state(state, a) for a in (a0, a1))
    return {
        "table": to_json_dict(table),
        "report": report_json_dict(report),
        "mu": _sig12(report.signal_mutual_info),
        "alpha_star": _sig12(report.alpha_star),
        "s": _sig12(report.strength),
        "tau": _sig12(quantum.trace_distance(rho0, rho1)),
        "chi": _sig12(quantum.holevo(report.alpha_star, rho0, rho1)),
        "bound": _sig12(quantum._corrected_bound(report.signal_mutual_info)),
    }


def _qp_payload(p: float) -> dict:
    table = unbalanced_pr(p)
    trade = randomness_report(p)
    payload = {
        "table": to_json_dict(table),
        "report": report_json_dict(classify(table, measure="delta")),
        "p": _sig12(trade.p),
        "s": _sig12(trade.strength),
        "intrinsic": _sig12(trade.intrinsic),
        "tradeoff": _sig12(trade.tradeoff),
    }
    if p <= 0.5:
        payload["cloning_violation"] = _sig12(cloning_violation(p))
    return payload


# Each demo's payload from the --p weight, which only qp reads; in --help order.
_DEMOS = {
    "pr-box": lambda p: _table_payload(pr_box()),
    "d01": lambda p: _table_payload(catalog("signal_0_anb").as_correlation()),
    "tsirelson": lambda p: _table_payload(quantum.tsirelson_box()),
    "tsirelson-signal": lambda p: _table_payload(tsirelson_signal_box()),
    "sigma": _sigma_payload,
    "qp": _qp_payload,
}
DEMO_NAMES = tuple(_DEMOS)


def cmd_demo(args) -> int:
    return _emit(_json_text(_DEMOS[args.name](args.p)), args.output_path)


def run(argv=None) -> int:
    """Run one command; usage errors exit 1 and computation failures exit 3."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"signalbox: {exc}", file=sys.stderr)
        return 1
    except SignalBoxError as exc:
        print(f"signalbox: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
