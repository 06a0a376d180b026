"""Command-line surface: analyze, bound, boundary, pvm, simulate, oracle.

Reports are JSON with 17-significant-digit floats; curves and samples are
CSV. Errors print a machine-readable JSON object to stderr and exit with
2 (schema/domain, an input sized past what can be allocated, or a singular
weight whose bound no estimator attains),
3 (model), or 4 (oracle: the duality gap missed its target, or
`bound --oracle` disagrees with the closed form). A report that cannot be
written, to --out or to stdout, is a SchemaError (exit 2).

`console_main` is the process entry (`qcrb`, `python -m qcrb`); in-process
callers call `main`.
"""

import argparse
import contextlib
import gc
import json
import os
import re
import sys

import numpy as np

from . import __version__, analysis, matkernel, reportio
from . import errors
from . import model as model_mod


def _exit_code(exc):
    if isinstance(exc, (errors.SchemaError, errors.DomainError,
                        errors.SingularWeight)):
        return 2
    if isinstance(exc, errors.NonConvergence):
        return 4
    return 3


@contextlib.contextmanager
def _open(path, mode, what):
    """open(path, mode) as text; an OSError or undecodable byte while the file is
    open is a SchemaError (exit 2) that names the path."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        if mode == "r" and isinstance(exc, FileNotFoundError):
            raise errors.SchemaError(f"{what} file not found: {path}") from exc
        verb = "read" if mode == "r" else "write"
        raise errors.SchemaError(f"cannot {verb} {what} file {path}: {exc}") from exc


def _load_json(path, what):
    with _open(path, "r", what) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise errors.SchemaError(f"{what} is not valid JSON: {exc}") from exc


def _resolve_weight(spec_str, js):
    """--weight as a matrix: identity, sld (the Fisher matrix js) or a JSON file."""
    m = js.shape[0]
    if spec_str is None or spec_str == "identity":
        return np.eye(m), "identity"
    if spec_str == "sld":
        return js.copy(), "sld"
    doc = _load_json(spec_str, "weight")
    try:
        g = np.asarray(doc, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise errors.SchemaError("weight file must hold a numeric matrix") from exc
    if g.shape != (m, m):
        raise errors.SchemaError(f"weight shape {g.shape} does not match m = {m}")
    if not np.all(np.isfinite(g)):
        raise errors.SchemaError("weight matrix entries must be finite")
    return g, spec_str   # every route decides PSD on the normalized weight


def _model_and_point(args):
    doc = _load_json(args.config, "config")
    model = model_mod.model_from_config(doc)   # every config carries its theta
    frame = model_mod.tangent_frame(model, model.theta0)
    fd = model_mod.fisher_data(frame)
    return doc, model, frame, fd


def _weighted_point(args):
    """The point of --config and its one Weight of --weight, with the weight's name."""
    doc, model, frame, fd = _model_and_point(args)
    g, wname = _resolve_weight(args.weight, fd.JS)
    return doc, model, frame, fd, fd.weight(g), wname


def _bound_report_obj(rep):
    return {
        "G": rep.G,
        "value": rep.value,
        "attained": rep.attained,
        "V_opt": rep.V_opt,
        "method": rep.method,
        "notes": rep.notes,
    }


def _print(text):
    """Write and flush stdout. An OSError is a SchemaError (exit 2), as for --out:
    the flush comes inside the check, not at the interpreter's exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is sys.__stdout__:
            # A buffer may keep the bytes that failed; the interpreter's exit flush
            # would fail on them again ("Exception ignored", exit 120). With fd 1 on
            # devnull, as in the Python docs' note on SIGPIPE, that flush succeeds.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise errors.SchemaError(f"cannot write output to stdout: {exc}") from exc


def _emit(text, out_path):
    if out_path:
        with _open(out_path, "w", "output") as fh:
            fh.write(text)
    else:
        _print(text)


def _base_report(command, doc, model, args):
    rep = {"tool": "qcrb", "version": __version__, "command": command}
    if command == "simulate":   # the one command that draws random numbers
        rep["seed"] = args.seed
    rep.update({"config": doc, "model": model.label, "theta": model.theta0})
    return rep


def cmd_analyze(args):
    doc, model, frame, fd = _model_and_point(args)
    spec = analysis.beta_spectrum(fd)
    rep = _base_report("analyze", doc, model, args)
    rep.update({
        "JS": fd.JS,
        "Jt": fd.Jt,
        "betas": spec.betas,
        "classification": spec.classification,
        "quasi_classical": spec.classification == "quasi_classical",
        "coherent": fd.coherent,
    })
    _emit(reportio.dumps(rep), args.out)
    return 0


def cmd_bound(args):
    doc, model, frame, fd, wt, wname = _weighted_point(args)
    closed = analysis.closed_form(fd, wt)
    bound = closed or analysis.oracle_bound(fd, wt)[0]
    rep = _base_report("bound", doc, model, args)
    rep["weight"] = wname
    rep["bound"] = _bound_report_obj(bound)
    code = 0
    if args.oracle and closed is not None:
        result = analysis.oracle_bound(fd, wt)[1]
        diff = abs(result.value - bound.value)
        agree = diff <= matkernel.TOL["oracle_agreement"] * abs(bound.value)
        rep["oracle"] = {
            "value": result.value,
            "gap": result.gap,
            "residuals": result.residuals,
            "difference": diff,
            "agreement": bool(agree),
        }
        if not agree:
            rep["DISAGREEMENT"] = True
            code = 4
    _emit(reportio.dumps(rep), args.out)
    if code:
        _error_json(errors.ConsistencyError(
            f"closed form and oracle disagree by {rep['oracle']['difference']!r}"), code)
    return code


def cmd_boundary(args):
    if args.config is not None and args.beta is not None:
        raise errors.SchemaError("boundary takes --config or --beta, not both")
    if args.config:
        doc, model, frame, fd = _model_and_point(args)
        if fd.JS.shape[0] != 2:
            raise errors.DomainError("boundary curve requires a two-parameter model")
        beta = float(analysis.beta_spectrum(fd).betas[0])
    elif args.beta is not None:
        beta = args.beta
    else:
        raise errors.SchemaError("boundary needs --config or --beta")
    wt = None
    if args.weight is not None:
        # --beta reads normalized coordinates, where JS = I and w G w is G; there
        # _resolve_weight makes the checks of fd.weight but PSD, which Weight makes
        g = _resolve_weight(args.weight, fd.JS if args.config else np.eye(2))[0]
        wt = fd.weight(g) if args.config else analysis.Weight(g, np.eye(2))
    rows = analysis.boundary_2param(beta, args.samples, x_window=(args.window[0], args.window[1]))
    header = ["x", "z", "u", "v"]
    if wt is not None:
        # Tr(G' V') = g0 u + g1 v, at unit scale and scaled back
        rows = np.column_stack([rows, wt.back(wt.g[0] * rows[:, 2] + wt.g[1] * rows[:, 3])])
        header.append("trGV")
    _emit(reportio.csv_rows(header, rows), args.out)
    return 0


def cmd_pvm(args):
    from . import measurement   # only the PVM commands load it

    doc, model, frame, fd, wt, wname = _weighted_point(args)
    spec = analysis.beta_spectrum(fd)
    space = measurement.pvm_space(frame, fd)
    ev, closed = measurement.optimal_vectors(space, fd, wt)
    pvm = measurement.pvm_from_vectors(ev)
    probs, v, unbiased = measurement.outcome_statistics(pvm, space)
    rep = _base_report("pvm", doc, model, args)
    rep.update({
        "weight": wname,
        "classification": spec.classification,
        "closed_form_value": closed.value,
        "method": closed.method,
        "verification": {
            "algebra_residuals": measurement.pvm_algebra_residuals(pvm),
            "unbiased": unbiased,
            "covariance": v,
            "trGV": wt.back(float(np.sum(wt.unit * v))),   # Tr(G V) at unit scale
            "probabilities": probs,
        },
        "pvm": measurement.pvm_to_obj(pvm, theta=model.theta0),
    })
    _emit(reportio.dumps(rep), args.out)
    return 0


def _z_scores(diff, se):
    """diff / se entrywise; None (null in the report) where the standard error is 0."""
    z = np.divide(diff, se, out=np.zeros_like(diff), where=se > 0)
    return np.where(se > 0, z, None)


def cmd_simulate(args):
    from . import measurement

    doc, model, frame, fd = _model_and_point(args)
    pvm_doc = _load_json(args.pvm, "pvm")
    if isinstance(pvm_doc, dict) and "pvm" in pvm_doc:
        pvm_doc = pvm_doc["pvm"]
    m = fd.JS.shape[0]
    pvm = measurement.pvm_from_obj(pvm_doc, m, theta=model.theta0)
    space = measurement.pvm_space(frame, fd)   # the space `pvm` chose
    where = "the model" if space is frame else "the embedding"
    if pvm.dim != space.phi.shape[0]:
        raise errors.SchemaError(
            f"PVM dimension {pvm.dim} does not match {where} ({space.phi.shape[0]})")
    result = measurement.sample_outcomes(pvm, space, args.samples, args.seed)
    summary = _base_report("simulate", doc, model, args)
    summary["count"] = result.count
    summary["analytic_covariance"] = result.analytic_cov
    if result.count == 0:
        summary["insufficient_data"] = True
    else:
        theta = np.asarray(model.theta0, dtype=float)
        se_mean = np.sqrt(np.diag(result.analytic_cov) / result.count)
        summary["empirical_mean"] = result.mean
        summary["empirical_covariance"] = result.cov
        summary["z_mean"] = _z_scores(result.mean - theta, se_mean)
        va = result.analytic_cov
        se_cov = np.sqrt((np.outer(np.diag(va), np.diag(va)) + va * va)
                         / result.count)
        summary["z_cov"] = _z_scores(result.cov - va, se_cov)
    if args.out:
        with _open(args.out, "w", "output") as fh:
            # each drawn outcome's row is formatted once, before any byte is written:
            # a non-finite drawn estimate leaves the file empty (NonFinite, exit 3)
            rows = {k: reportio.csv_row(result.estimates[k])
                    for k in np.flatnonzero(result.counts).tolist()}
            fh.write(reportio.csv_rows([f"outcome_{i + 1}" for i in range(m)], ()))
            for start in range(0, result.count, measurement.BLOCK):
                block = result.drawn[start:start + measurement.BLOCK].tolist()
                fh.write("".join([rows[k] for k in block]))
        summary["csv"] = args.out
    _print(reportio.dumps(summary))
    return 0


def cmd_oracle(args):
    doc, model, frame, fd, wt, wname = _weighted_point(args)
    result = analysis.oracle_bound(fd, wt)[1]
    rep = _base_report("oracle", doc, model, args)
    rep.update({
        "weight": wname,
        "value": result.value,
        "gap": result.gap,
        "attained": result.attained,
        "residuals": result.residuals,
        "certificate": None,
    })
    if result.attained:
        from . import oracle   # analysis.oracle_bound has loaded it
        cert = oracle.stationarity_certificate(result, fd)
        rep["certificate"] = {
            "Lambda": cert.Lambda,
            "residual": cert.residual,
            "extras": cert.extras,
        }
    closed = analysis.closed_form(fd, wt)
    if closed is not None:
        rep["closed_form"] = {
            "method": closed.method,
            "value": closed.value,
            "difference": abs(closed.value - result.value),
        }
    _emit(reportio.dumps(rep), args.out)
    return 0


def _error_json(exc, code):
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }) + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qcrb",
        description="SLD Fisher information, attainable bounds, and "
                    "bound-attaining projective measurements for pure-state models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, weight=True):
        p.add_argument("--config", required=config_required, help="model config JSON")
        if weight:   # the commands that read a weight
            p.add_argument("--weight", help="identity | sld | path to a JSON matrix")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("analyze", help="Fisher matrices, beta spectrum, classification")
    common(p, weight=False)
    p.set_defaults(run=cmd_analyze)
    p = sub.add_parser("bound", help="attainable bound for a weight matrix")
    common(p)
    p.set_defaults(run=cmd_bound)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the closed form against the oracle")
    p = sub.add_parser("boundary", help="two-parameter stationary curve as CSV")
    # --beta and --window read every negative float as a value: argparse before
    # Python 3.13 reads only -1 and -1.5 so, and takes -1e300 and -inf for options
    p._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)
    common(p, config_required=False)
    p.set_defaults(run=cmd_boundary)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--window", type=float, nargs=2, default=(-1.0, 1.0),
                   help="x-window for the beta = 1 hyperbola")
    p.add_argument("--samples", type=int, default=101, help="points on the curve")
    p = sub.add_parser("pvm", help="bound-attaining projective measurement")
    common(p)
    p.set_defaults(run=cmd_pvm)
    p = sub.add_parser("simulate", help="sample outcomes of a stored PVM")
    common(p, weight=False)
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--pvm", required=True, help="PVM JSON produced by the pvm command")
    p.add_argument("--samples", type=int, default=100000, help="number of shots")
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("oracle", help="Holevo SDP bound with duality gap and "
                                      "stationarity certificate")
    common(p)
    p.set_defaults(run=cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except errors.QcrbError as exc:
        code = _exit_code(exc)
        _error_json(exc, code)
        return code


def console_main():
    """main() on sys.argv, then freeze the collector's heap on every way out.

    Interpreter finalization runs full collections over every tracked object,
    whether or not the collector is enabled, though what the interpreter and
    numpy built on import is not read again; frozen objects sit in the
    permanent generation, which those collections skip. atexit handlers, stream
    flushes and module teardown run as before. `main` freezes nothing, so an
    in-process caller keeps its heap collectable.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
