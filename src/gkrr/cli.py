"""Command-line interface: selection, fitting, prediction, experiments and
verification.

Exit codes: 0 success, 2 input error (files, flags), 3 computation error
(selector or factorization failures). Every subcommand is deterministic given
its flags and seed; floats are printed at 17 significant digits so re-runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import bandwidth, evaluate, krr, verify
from .data import CsvFormatError, Dataset, _fmt, format_table, generate_synthetic, load_csv
from .data import read_rows, write_csv, write_text


class _InputError(Exception):
    """User-input problem (bad file, incompatible flags): exit code 2."""


def _parse_values(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _InputError(f"cannot parse --values {text!r}: {exc}") from None


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_test_size(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _InputError(f"cannot parse --test-size {text!r}") from None


def _selects_error(args) -> str | None:
    """check_selects' text for the selectors the command runs, with its CV flags, at
    the least training size its flags fix, or None when every selector can run. A
    file's size is not known here: the selectors check it when they run."""
    methods = (args.method,) if args.command in ("select", "fit") else _parse_methods(args.methods)
    n = math.inf
    if args.command == "sweep":
        n = args.n if args.axis == evaluate.AXIS_LAMBDA else int(min(_parse_values(args.values)))
    try:
        if getattr(args, "sigma", None) is None:  # fit --sigma runs no selector
            bandwidth.check_selects(methods, n, args.folds, args.grid_size, args.grid_min)
    except ValueError as exc:
        return str(exc)
    return None


def _unread_verify_flag(args) -> str | None:
    """The error naming the first flag --claim does not read that is not at its default, or None."""
    claim_reads = _CLAIMS[args.claim][0]
    reads = {*claim_reads, "--output"} - ({"--noise-sd"} if args.p > 1 else set())
    defaults = build_parser().parse_args(["verify", "--claim", args.claim])
    for dest, value in vars(args).items():
        flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
        if value != getattr(defaults, dest) and flag not in reads:
            where = f" at --p {args.p}" if flag in claim_reads else ""
            return f"--claim {args.claim}{where} does not read {flag}"
    return None


# Every flag check, as (commands, flag, ok(args), message): the message is a str
# or, where it quotes a value, a function of args. main applies the rules in
# order before a command runs or reads a file; the first that fails is exit 2.
_FLAG_RULES = (
    (("select", "fit", "synth", "sweep", "jackknife", "verify"), "--seed",
     lambda a: a.seed >= 0, "--seed must be >= 0"),
    (("synth", "verify"), "--n", lambda a: a.n >= 1, "--n must be >= 1"),
    (("verify",), "--p", lambda a: a.p >= 1, "--p must be >= 1"),
    (("verify",), "--trials", lambda a: a.trials >= 1, "--trials must be >= 1"),
    (("fit", "verify"), "--sigma", lambda a: a.sigma is None or 0.0 < a.sigma < math.inf,
     lambda a: f"--sigma: sigma must be finite and > 0, got {a.sigma}"),
    (("fit", "verify"), "--sigma", lambda a: a.sigma is None or 2.0 * a.sigma * a.sigma > 0.0,
     lambda a: f"--sigma: sigma={a.sigma} is too small: 2*sigma^2 underflows to 0"),
    (("verify",), "--lmax", lambda a: 0.0 < a.lmax < math.inf, "--lmax must be finite and > 0"),
    (("verify",), "--delta", lambda a: 0.0 < a.delta < 1.0, "--delta must be in (0, 1)"),
    (("synth", "sweep", "verify"), "--noise-sd", lambda a: 0.0 <= a.noise_sd < math.inf,
     "--noise-sd must be finite and >= 0"),
    (("sweep", "jackknife"), "--threads", lambda a: a.threads >= 1, "--threads must be >= 1"),
    (("sweep",), "--repeats", lambda a: a.repeats >= 2, "--repeats must be >= 2"),
    (("jackknife",), "--holdout", lambda a: 0.0 <= a.holdout < 1.0, "--holdout must be in [0, 1)"),
    (("jackknife",), "--eval-points", lambda a: a.eval_points >= 1, "--eval-points must be >= 1"),
    (("select", "fit", "sweep", "jackknife"), "--grid-min", lambda a: math.isfinite(a.grid_min),
     lambda a: f"--grid-min must be finite, got {a.grid_min}"),
    (("select", "fit"), "--grid-max", lambda a: a.grid_max is None or math.isfinite(a.grid_max),
     lambda a: f"--grid-max must be finite, got {a.grid_max}"),
    (("select", "fit"), "--grid-max", lambda a: a.grid_max is None or a.grid_max > a.grid_min,
     "--grid-max must exceed --grid-min"),
    (("sweep",), "--values", lambda a: _parse_values(a.values), "--values is empty"),
    (("sweep",), "--values",
     lambda a: a.axis != evaluate.AXIS_N or all(v.is_integer() for v in _parse_values(a.values)),
     lambda a: f"n-axis --values must be whole numbers, got {a.values!r}"),
    (("sweep",), "--test-size", lambda a: 0.0 < _parse_test_size(a.test_size) < math.inf,
     "--test-size must be finite and positive"),
    (("sweep",), "--test-size",
     lambda a: (v := _parse_test_size(a.test_size)) < 1.0 or v.is_integer(),
     lambda a: f"--test-size of 1 or more must be a whole row count, got {a.test_size!r}"),
    (("sweep",), "--test-size", lambda a: _parse_test_size(a.test_size) >= 1.0 or a.input,
     "a fractional --test-size needs --input"),
    (("sweep",), "--n", lambda a: a.axis != evaluate.AXIS_LAMBDA or a.n is not None,
     "a lambda-axis sweep needs --n (fixed training size)"),
    (("select", "fit"), "--method", lambda a: _selects_error(a) is None, _selects_error),
    (("sweep", "jackknife"), "--methods", lambda a: _selects_error(a) is None, _selects_error),
    (("verify",), "--n", lambda a: a.n >= 3 or a.claim == "prop3"
     or (a.sigma is not None and a.claim in ("prop2", "bermanis")),
     lambda a: f"--n must be >= 3 for --claim {a.claim}"),
    (("select",), "--output",
     lambda a: a.output is None or a.method in (bandwidth.METHOD_CV, bandwidth.METHOD_SEEDED_CV),
     "select --output writes the CV curve: it needs --method cv or seeded-cv"),
    (("verify",), "--claim", lambda a: _unread_verify_flag(a) is None, _unread_verify_flag),
)


def _check_flags(args) -> None:
    """The first of ``_FLAG_RULES`` that ``args`` fails, as an _InputError."""
    for commands, _, ok, message in _FLAG_RULES:
        if args.command in commands and not ok(args):
            raise _InputError(message if isinstance(message, str) else message(args))


def _select(args, data: Dataset) -> bandwidth.BandwidthResult:
    """Run the --method selector; --grid-max, if given, ends CV's grid."""
    return bandwidth.select_bandwidth(
        args.method, data, args.lam, folds=args.folds, grid_size=args.grid_size,
        grid_min=args.grid_min, grid_max=args.grid_max, seed=args.seed,
    )


def cmd_select(args) -> int:
    res = _select(args, load_csv(args.input, args.header))
    print(f"sigma={_fmt(res.sigma)}")
    print(f"method={res.method}")
    if res.regime is not None:
        print(f"regime={res.regime.value}")
        print(f"clamped={'true' if res.clamped else 'false'}")
        print(f"j2a={_fmt(res.j2a_at_sigma)}")
    if args.output:
        write_text(args.output, format_table(res.cv_curve, ["sigma", "mean_loss"]))
    return 0


def cmd_fit(args) -> int:
    data = load_csv(args.input, args.header)
    sigma = _select(args, data).sigma if args.sigma is None else args.sigma
    model = krr.fit(data, sigma, args.lam)
    krr.save_model(model, args.output)
    print(f"sigma={_fmt(sigma)}")
    print(f"n={model.n}")
    print(f"model={args.output}")
    return 0


def cmd_predict(args) -> int:
    try:
        model = krr.load_model(args.model)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    X = read_rows(args.input, args.header)
    if X.shape[1] != model.p:
        raise _InputError(f"{args.input}: rows have {X.shape[1]} columns, model expects {model.p}")
    preds = krr.predict(model, X)
    write_text(args.output, format_table(zip(preds.tolist())))
    print(f"predictions={len(preds)}")
    return 0


def cmd_synth(args) -> int:
    data = generate_synthetic(args.n, args.noise_sd, args.seed)
    write_csv(data, args.output)
    print(f"rows={data.n}")
    return 0


def cmd_sweep(args) -> int:
    data = load_csv(args.input, args.header) if args.input else None
    report = evaluate.run_sweep(
        args.axis, _parse_values(args.values), data=data, noise_sd=args.noise_sd,
        fixed_n=args.n, fixed_lambda=args.lam, repeats=args.repeats,
        test_size=_parse_test_size(args.test_size), methods=_parse_methods(args.methods),
        folds=args.folds, grid_size=args.grid_size, grid_min=args.grid_min, seed=args.seed,
        threads=args.threads,
    )
    write_text(args.output, evaluate.sweep_to_csv(report))
    print(f"points={len(report.points)}")
    print(f"report={args.output}")
    return 0


def cmd_jackknife(args) -> int:
    data = load_csv(args.input, args.header)
    eval_grid = None  # run_jackknife's default: the training features
    if args.holdout > 0.0:
        # reserve a seeded random reference slice; jackknife the remainder
        # and evaluate on the reference features
        n_ref = max(1, round(args.holdout * data.n))
        if data.n - n_ref < 3:
            raise _InputError("holdout leaves fewer than 3 training rows")
        ref, rest = evaluate.seeded_split(data.n, n_ref, args.seed, 5, 0)
        eval_grid = data.features[ref]
        data = data.subset(np.sort(rest))
    elif data.p == 1:
        lo = float(data.features.min())
        hi = float(data.features.max())
        eval_grid = np.linspace(lo, hi, args.eval_points).reshape(-1, 1)
    report = evaluate.run_jackknife(
        data, args.lam, methods=_parse_methods(args.methods), eval_grid=eval_grid,
        folds=args.folds, grid_size=args.grid_size, grid_min=args.grid_min, seed=args.seed,
        threads=args.threads,
    )
    write_text(args.output, evaluate.jackknife_to_csv(report))
    for m in report.methods:
        print(
            f"method={m} mean_sigma={_fmt(report.mean_sigma[m])} "
            f"sd_sigma={_fmt(report.sd_sigma[m])} excluded={report.excluded[m]}"
        )
    print(f"report={args.output}")
    return 0


def _verify_sigma(args, X: np.ndarray) -> float:
    """--sigma, else the Jacobian selection on the claim's rows."""
    return bandwidth.select_jacobian(X, args.lam).sigma if args.sigma is None else args.sigma


def _on_cloud(args, check) -> verify.BoundReport:
    """check(X, sigma) on --n points, a linspace to --lmax at p = 1, else --lmax
    times U[0,1]^p drawn from --seed, which the report records."""
    X = (np.linspace(0.0, args.lmax, args.n).reshape(-1, 1) if args.p == 1
         else args.lmax * np.random.default_rng(args.seed).uniform(0.0, 1.0, size=(args.n, args.p)))
    return replace(check(X, _verify_sigma(args, X)), seed=args.seed)


def _prop2(args) -> verify.BoundReport:
    if args.p == 1:
        data = generate_synthetic(args.n, args.noise_sd, args.seed)
    else:
        rng = np.random.default_rng(args.seed)
        data = Dataset(rng.uniform(0.0, 1.0, size=(args.n, args.p)), rng.normal(0.0, 1.0, size=args.n))
    sigma = _verify_sigma(args, data.features)
    return verify.check_prop2_chain(data, sigma, args.lam, trials=args.trials, seed=args.seed)


# Each verify claim by its --claim spelling: (the flags it reads besides --claim and
# --output, its report from the args); prop2 reads --noise-sd at p = 1 only, for sine data
_CLAIMS = {
    "prop1": (("--n", "--p", "--lmax", "--lambda"), lambda a: verify.check_prop1_regimes(
        bandwidth.JacobianParams(n=a.n, p=a.p, l_max=a.lmax, lam=a.lam))),
    "prop2": (("--n", "--p", "--seed", "--sigma", "--lambda", "--trials", "--noise-sd"), _prop2),
    "prop3": (("--sigma",), lambda a: verify.check_prop3_gradmax(1.0 if a.sigma is None else a.sigma)),
    "prop4": (("--n", "--p", "--lmax", "--seed", "--sigma", "--lambda"),
              lambda a: _on_cloud(a, lambda X, sigma: verify.check_prop4(X, sigma, a.lam))),
    "bermanis": (("--n", "--p", "--lmax", "--seed", "--sigma", "--lambda", "--delta"),
                 lambda a: _on_cloud(a, lambda X, sigma: verify.check_bermanis_count(X, sigma, a.delta))),
}


def cmd_verify(args) -> int:
    report = _CLAIMS[args.claim][1](args)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"claim={report.claim} trials={report.trials} violations={report.violations} "
        f"worst_margin={_fmt(report.worst_margin)} seed={report.seed} {verdict}"
    )
    print(f"config={report.config}")
    if args.output:
        write_text(args.output, verify.reports_to_csv([report]))
    return 0


def _add_common(p, output_required=False):
    p.add_argument("--lambda", dest="lam", type=float, default=1e-3,
                   help="ridge regularization strength")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--output", required=output_required, default=None,
                   help="output file path")


def _add_selector_flags(p, one_method=False):
    if one_method:  # sweep and jackknife take --methods; their CV grids end at the diameter
        p.add_argument("--method", default="jacobian", choices=bandwidth.METHODS,
                       help="bandwidth selection method")
        p.add_argument("--grid-max", type=float, default=None,
                       help="CV grid upper bound (default: data diameter)")
    p.add_argument("--folds", type=int, default=bandwidth.DEFAULT_FOLDS, help="CV fold count")
    p.add_argument("--grid-size", type=int, default=bandwidth.DEFAULT_GRID_SIZE,
                   help="CV grid size")
    p.add_argument("--grid-min", type=float, default=bandwidth.DEFAULT_GRID_MIN,
                   help="CV grid lower bound")


def _add_input(p, required=True):
    p.add_argument("--input", required=required, default=None, help="input CSV path")
    p.add_argument("--header", action="store_true",
                   help="input CSV has a single header row")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkrr",
        description="Gaussian kernel ridge regression with Jacobian-control "
                    "bandwidth selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags match only in full, or sweep's --methods would take a --method
    kw = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter, allow_abbrev=False)

    p = sub.add_parser("select", help="select a bandwidth for a dataset", **kw)
    _add_input(p)
    _add_selector_flags(p, one_method=True)
    _add_common(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("fit", help="fit a model and write it to disk", **kw)
    _add_input(p)
    _add_selector_flags(p, one_method=True)
    p.add_argument("--sigma", type=float, default=None,
                   help="bandwidth override (skips selection)")
    _add_common(p, output_required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict from a saved model", **kw)
    p.add_argument("--model", required=True, help="model file from 'fit'")
    _add_input(p)
    p.add_argument("--output", required=True, help="output file path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("synth", help="generate the synthetic sine dataset", **kw)
    p.add_argument("--n", type=int, required=True, help="number of observations")
    p.add_argument("--noise-sd", type=float, default=0.1, help="noise standard deviation")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--output", required=True, help="output file path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="n- or lambda-sweep with repeated splits", **kw)
    p.add_argument("--axis", required=True, choices=(evaluate.AXIS_N, evaluate.AXIS_LAMBDA))
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--n", type=int, default=None, help="fixed training size (lambda axis)")
    p.add_argument("--repeats", type=int, default=100, help="replicates per axis value")
    p.add_argument("--test-size", default="1000",
                   help="test observations (count, or fraction below 1)")
    p.add_argument("--methods", default=",".join(bandwidth.METHODS),
                   help="comma-separated methods to compare")
    p.add_argument("--noise-sd", type=float, default=0.1,
                   help="noise level for synthetic draws")
    p.add_argument("--threads", type=int, default=1, help="replicate worker processes")
    _add_input(p, required=False)
    _add_selector_flags(p)
    _add_common(p, output_required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("jackknife", help="leave-one-out stability study", **kw)
    _add_input(p)
    p.add_argument("--methods", default=",".join(bandwidth.METHODS),
                   help="comma-separated methods to compare")
    p.add_argument("--holdout", type=float, default=0.0,
                   help="fraction reserved as the evaluation reference set")
    p.add_argument("--eval-points", type=int, default=100,
                   help="evaluation grid size for 1-D data (no holdout)")
    p.add_argument("--threads", type=int, default=1, help="replicate worker processes")
    _add_selector_flags(p)
    _add_common(p, output_required=True)
    p.set_defaults(func=cmd_jackknife)

    p = sub.add_parser("verify", help="run a numerical bound check", **kw)
    p.add_argument("--claim", required=True, choices=sorted(_CLAIMS))
    p.add_argument("--n", type=int, default=10, help="instance size")
    p.add_argument("--p", type=int, default=1, help="feature dimension")
    p.add_argument("--sigma", type=float, default=None,
                   help="bandwidth (default: Jacobian selection)")
    p.add_argument("--lmax", type=float, default=1.0, help="data diameter for generated points")
    p.add_argument("--delta", type=float, default=0.5, help="spectrum cutoff for bermanis")
    p.add_argument("--trials", type=int, default=100, help="random trials for prop2")
    p.add_argument("--noise-sd", type=float, default=0.1,
                   help="noise level for prop2 synthetic data (p = 1 only)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on flag errors and 0 on --help; rewrap 2 for clarity
        return int(exc.code or 0)
    try:
        _check_flags(args)
        return args.func(args)
    except (_InputError, CsvFormatError, OSError) as exc:
        print(f"gkrr: input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"gkrr: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
