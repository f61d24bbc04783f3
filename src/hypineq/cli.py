"""Command-line front end: constants tables, lemma certification,
corpus-wide inequality verification, sharpness runs, and parameter
sweeps.

Exit codes: 0 pass, 1 contract violation (a certified negative margin
where the theory forbids one, or a failed requested check), 2
usage/domain error (including an unreadable or unwritable path), 3
inconclusive (non-convergent, or a numeric guard tripped), 4 internal
error (any other exception; a bug, reported on one line).

All artifact writes are atomic (temp file + rename) and deterministic:
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from typing import List, Optional

from . import constants, lemma, rearrangement, sharpness, verifier
from .constants import Params
from .corpus import standard_corpus
from .errors import (BracketError, ConvergenceError, DomainError, EvaluationError,
                     OverflowDomainError)
from .report import csv_table, fmt17, reports_to_csv, reports_to_json

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str, filename: str) -> None:
    if args.out:
        _write_atomic(os.path.join(args.out, filename), text)
    else:
        sys.stdout.write(text)


def _list_of(kind: type, what: str):
    """argparse type of a non-empty comma-separated list of kind, named
    what in its error message."""
    def parse(text: str) -> list:
        try:
            items = [kind(x) for x in text.split(",") if x.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} list {text!r}")
        if not items:
            raise argparse.ArgumentTypeError(f"empty {what} list {text!r}")
        return items
    return parse


def _check_tolerance(flag: str, x: float) -> None:
    """Reject a tolerance flag that is not finite or is below 0."""
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{flag} must be finite and >= 0, got {x!r}")


def _add_common(sub: argparse.ArgumentParser, fmt: bool = True,
                rel_tol: bool = False) -> None:
    sub.add_argument("--out", default=None, help="artifact directory "
                     "(default: print to stdout)")
    if fmt:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    if rel_tol:
        sub.add_argument("--rel-tol", type=float, default=1e-8)
    sub.add_argument("--config", default=None,
                     help="flat key=value file; flags override it")


@functools.lru_cache(maxsize=1)
def build_parser():
    """The parser and its subparsers by command, built once per process:
    parsing leaves them as they were, so every request shares them."""
    parser = argparse.ArgumentParser(
        prog="hypineq",
        description="Sharp constant-dominated inequalities on hyperbolic "
                    "space: verification and sharpness tooling.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("constants", help="print every applicable constant")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=None)
    _add_common(sp)

    sp = subs.add_parser("lemma", help="certify or refute the kernel comparison")
    sp.add_argument("mode", choices=("verify", "violate"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--t-max", type=float, default=None)
    _add_common(sp)

    sp = subs.add_parser("verify", help="inequality deficits over a corpus")
    sp.add_argument("--inequality", required=True, choices=verifier.INEQUALITIES)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--corpus", default=None,
                    help="directory of profile files (default: built-in corpus)")
    sp.add_argument("--constant-scale", type=float, default=1.0,
                    help="test hook: multiply the sharp constant")
    _add_common(sp, rel_tol=True)

    sp = subs.add_parser("sharpness", help="concentration trend / optimizer run")
    sp.add_argument("--inequality", default="poincare_sobolev",
                    choices=[key for key, row in verifier.INEQUALITIES.items()
                             if row.ratio is not None])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    # the defaults of the flags of one mode are in _SHARPNESS_FLAGS
    sp.add_argument("--lambdas", type=_list_of(float, "number"),
                    default=argparse.SUPPRESS)
    sp.add_argument("--truncation", type=float, default=1.0)
    sp.add_argument("--gap-max", type=float, default=argparse.SUPPRESS,
                    help="maximum final gap, as a fraction of the target")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--optimize", action="store_true",
                      help="run the derivative-free minimizer instead of a sweep")
    mode.add_argument("--no-optimize", action="store_true",
                      help="evaluate the ratio at a single --lambda and exit")
    sp.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--lambda", dest="single_lambda", type=float,
                    default=argparse.SUPPRESS)
    _add_common(sp, fmt=False)

    sp = subs.add_parser("sweep", help="deficit reports over an (n, p) grid")
    sp.add_argument("--inequality", required=True, choices=verifier.INEQUALITIES)
    sp.add_argument("--n-list", type=_list_of(int, "integer"), required=True)
    sp.add_argument("--p-list", type=_list_of(float, "number"), required=True)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--corpus", default=None)
    sp.add_argument("--constant-scale", type=float, default=1.0)
    _add_common(sp, rel_tol=True)

    return parser, subs.choices


@functools.lru_cache(maxsize=1)
def _config_parser() -> argparse.ArgumentParser:
    """The pre-parser that finds --config ahead of the full parse."""
    pre = argparse.ArgumentParser(prog="hypineq", add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config")
    return pre


def _apply_config(argv: List[str], subparsers) -> List[str]:
    """Inject config-file entries as flags ahead of the explicit ones, so
    that explicit flags win.  Unknown keys are rejected."""
    path = _config_parser().parse_known_args(argv)[0].config
    if path is None:
        return argv
    command = argv[0]
    if command not in subparsers:
        return argv
    known = {}
    for action in subparsers[command]._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                known[opt[2:]] = action
    injected: List[str] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
            action = known[key]
            if isinstance(action, (argparse._StoreTrueAction,)):
                if value.lower() in ("1", "true", "yes"):
                    injected.append(f"--{key}")
                elif value.lower() not in ("0", "false", "no"):
                    raise DomainError(f"{path}:{lineno}: bad flag value {value!r}")
            else:
                injected.extend([f"--{key}", value])
    return [command] + injected + argv[1:]


# -- constants ------------------------------------------------------


def cmd_constants(args) -> int:
    n, p, alpha = args.n, args.p, args.alpha
    rows, overflowed = [], []

    def attempt(name, fn, needs):
        try:
            rows.append((name, fn(), None))
        except OverflowDomainError as exc:
            rows.append((name, None, str(exc)))
            overflowed.append(name)
        except DomainError:
            rows.append((name, None, needs))

    attempt("unit_ball_volume",
            lambda: constants.unit_ball_volume(n), "needs n >= 1")
    attempt("sobolev", lambda: constants.sobolev_constant(Params(n, p)),
            "needs 1 < p < n")
    if alpha is None:
        rows.append(("gagliardo_nirenberg", None, "needs --alpha"))
    else:
        attempt("gagliardo_nirenberg",
                lambda: constants.gn_constant(Params(n, p, alpha)),
                "needs 1 < p < n and admissible alpha")
    attempt("morrey", lambda: constants.morrey_constant(Params(n, p)),
            "needs p > n")
    attempt("linfty", lambda: constants.linfty_constant(Params(n, p)),
            "needs p > n")
    attempt("log_sobolev",
            lambda: constants.log_sobolev_constant(Params(n, p)),
            "needs n >= 4 and 2n/(n-1) <= p < n")

    populated = [r for r in rows[1:] if r[1] is not None]
    lines = []
    for name, value, needs in rows:
        if value is None:
            lines.append(f"{name:20s} n/a ({needs})")
        else:
            lines.append(f"{name:20s} {fmt17(value)}")
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if not populated:
        # unit_ball_volume is no constant of an inequality
        if set(overflowed) - {"unit_ball_volume"}:
            sys.stderr.write("every constant that admits these parameters "
                             "overflows double precision\n")
        else:
            sys.stderr.write("no constant admits these parameters\n")
        return EXIT_USAGE
    if args.out:
        if args.format == "csv":
            _write_atomic(os.path.join(args.out, "constants.csv"),
                          csv_table(("constant", "value", "note"), rows))
        else:
            payload = {name: (None if v is None else fmt17(v)) for name, v, _ in rows}
            _write_atomic(os.path.join(args.out, "constants.json"),
                          json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_PASS


# -- lemma ----------------------------------------------------------


def cmd_lemma(args) -> int:
    n, p = args.n, args.p
    # an unset --t-max leaves each mode's default radius range to lemma.py
    given = {} if args.t_max is None else {"t_max": args.t_max}
    if args.mode == "verify":
        table = lemma.verify_lemma(n, p, **given)
        code = EXIT_PASS if table.passed else EXIT_VIOLATION
    else:
        table = lemma.find_violation(n, p, **given)
        code = EXIT_INCONCLUSIVE if table.inconclusive else EXIT_PASS
    stem = f"lemma-{args.mode}-n{n}-p{p:g}"
    if args.out:
        _write_atomic(os.path.join(args.out, stem + ".csv"), table.to_csv())
        _write_atomic(os.path.join(args.out, stem + ".json"), table.to_json())
    else:
        sys.stdout.write(table.to_csv() if args.format == "csv"
                         else table.to_json())
    return code


# -- verify / sweep -------------------------------------------------


def _load_corpus(directory: Optional[str]):
    if directory is None:
        return standard_corpus()
    names = sorted(f for f in os.listdir(directory) if f.endswith(".txt"))
    if not names:
        raise DomainError(f"no profile files (*.txt) in {directory!r}")
    return [rearrangement.read_profile(os.path.join(directory, f))
            for f in names]


def _verify_over(args, ns: List[int], ps: List[float], command: str) -> int:
    """Evaluate the inequality on every corpus profile at every (n, p),
    emit the reports, and exit 1 if any of them fails."""
    _check_tolerance("--rel-tol", args.rel_tol)
    corpus = _load_corpus(args.corpus)
    reports = [verifier.evaluate(args.inequality, v, n, p, args.alpha,
                                 constant_scale=args.constant_scale)
               for n in ns for p in ps for v in corpus]
    text = (reports_to_csv(reports) if args.format == "csv"
            else reports_to_json(reports))
    _emit(args, text, f"{command}-{args.inequality}.{args.format}")
    ok = all(r.passes(args.rel_tol) for r in reports)
    return EXIT_PASS if ok else EXIT_VIOLATION


# -- sharpness ------------------------------------------------------

# sharpness flags that only some modes use: dest, flag, default, the modes
_SHARPNESS_FLAGS = (
    ("single_lambda", "--lambda", None, ("--no-optimize",)),
    ("max_iter", "--max-iter", 60, ("--optimize",)),
    ("lambdas", "--lambdas", (1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5), ("sweep",)),
    ("gap_max", "--gap-max", 0.05, ("--optimize", "sweep")),
    ("out", "--out", None, ("--optimize", "sweep")),
)


def _check_sharpness_flags(args, sub: argparse.ArgumentParser) -> None:
    """Reject a flag the sharpness mode would ignore; default the others."""
    mode = ("--optimize" if args.optimize else
            "--no-optimize" if args.no_optimize else "sweep")
    for dest, flag, default, modes in _SHARPNESS_FLAGS:
        if getattr(args, dest, None) is not None and mode not in modes:
            sub.error(f"unrecognized arguments: {flag} (not used in {mode} mode)")
        vars(args).setdefault(dest, default)


def _sharpness_verdict(gaps: List[float], target: float, settled: bool,
                       gap_max: float) -> int:
    """Exit code of a sharpness run from its gaps (ratio - target): 1 if a
    gap undercuts the target by more than 1e-6 of it, 3 if the run has
    not settled (a broken trend, or no convergence) or the last gap
    exceeds gap_max of the target, 0 otherwise."""
    if min(gaps) < -1e-6 * target:
        return EXIT_VIOLATION
    if not settled or gaps[-1] > gap_max * target:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_sharpness(args) -> int:
    n, p = args.n, args.p
    _check_tolerance("--gap-max", args.gap_max)
    ratio, target = sharpness.ratio_function(args.inequality, n, p)

    if args.no_optimize:
        if args.single_lambda is None:
            raise DomainError("--no-optimize needs --lambda")
        value = ratio(sharpness.truncated_bubble(
            n, p, args.single_lambda, args.truncation))
        sys.stdout.write(fmt17(value) + "\n")
        return EXIT_PASS

    if args.optimize:
        res = sharpness.minimize_ratio(
            args.inequality, n, p, T0=args.truncation, max_iter=args.max_iter)
        _emit(args, res.trace_csv(), "sharpness-trace.csv")
        return _sharpness_verdict([res.gap], target, res.converged, args.gap_max)

    pairs = sharpness.lambda_sweep(args.inequality, n, p, args.lambdas,
                                   T=args.truncation)
    _emit(args, csv_table(("lambda", "T", "ratio", "gap"),
                          [(lam, args.truncation, r, r - target) for lam, r in pairs]),
          "sharpness-sweep.csv")
    ratios = [r for _, r in pairs]
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    return _sharpness_verdict([r - target for r in ratios], target, monotone,
                              args.gap_max)


_DISPATCH = {
    "constants": cmd_constants,
    "lemma": cmd_lemma,
    "verify": lambda args: _verify_over(args, [args.n], [args.p], "verify"),
    "sweep": lambda args: _verify_over(args, args.n_list, args.p_list, "sweep"),
    "sharpness": cmd_sharpness,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser, subparsers = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv, subparsers)
        args = parser.parse_args(argv)
        if args.command == "sharpness":
            _check_sharpness_flags(args, subparsers["sharpness"])
        return _DISPATCH[args.command](args)
    except (DomainError, BracketError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ConvergenceError, EvaluationError) as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE
    except Exception as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
