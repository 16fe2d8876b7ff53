"""Command-line front end: reproducible runs with seeds and CSV/JSON output.

Exit codes: 0 success, 2 invalid arguments, 3 runtime or capacity failure.
Data goes to stdout (or --output); progress lines go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import os
import secrets
import sys
from dataclasses import asdict, dataclass

from .util import CapacityError, check_rho

DEFAULT_SEED = 20260808


@dataclass
class RunConfig:
    """Everything needed to reproduce one run byte for byte.

    `params` holds the parsed option values, typed as the parser gives them.
    """

    command: str
    params: dict
    seed: int
    output: str | None
    fmt: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Read a saved config; `main` checks its params, fmt and output by parsing them."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"the saved config must be a JSON object, not {data!r}")
        for name in cls.__dataclass_fields__:
            if name not in data:
                raise ValueError(f"the saved config has no parameter {name!r}")
        if not isinstance(data["params"], dict):
            raise ValueError(f"the saved params must be a JSON object, not {data['params']!r}")
        if type(data["seed"]) is not int:
            raise ValueError(f"the saved seed must be an integer, not {data['seed']!r}")
        return cls(**{name: data[name] for name in cls.__dataclass_fields__})


def parse_mixture(text: str):
    """Parse the mixture syntax 'r:w[,r:w...]' into a RadiusMixture."""
    from .boolean_model import RadiusMixture

    atoms = []
    for part in text.split(","):
        try:
            r_str, w_str = part.split(":")
            atoms.append((float(r_str), float(w_str)))
        except Exception as exc:
            raise ValueError(f"bad mixture atom {part!r}; expected 'radius:weight'") from exc
    return RadiusMixture(atoms)


def _parse_seed(text: str) -> int:
    if text == "random":
        return secrets.randbits(63)
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed}")
    return seed


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """n evenly spaced floats from start to stop (none for n <= 0): the floats
    of numpy.linspace, start + i * step with the last set to stop."""
    if n < 2:
        return [start] * n
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def emit(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    return emit


def _estimate_row(est, rho=None, alpha=None) -> dict:
    return {
        "rho": rho,
        "alpha": alpha,
        "d": est.dimension,
        "L": est.box_side,
        "trials": est.trials,
        "lambda_c": est.lambda_c,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "normalized": est.normalized,
        "covered_volume": est.covered_volume,
        "seed": est.seed,
    }


def _cmd_kappa(params: dict, seed: int, quiet: bool):
    from . import thresholds

    rho = params["rho"]
    if "k" in params:
        res = thresholds.kappa_c_k(rho, params["k"])
    else:
        res = thresholds.kappa_c(rho, params["kmax"])
    row = {
        "rho": rho,
        "k": res.k_used,
        "kappa": res.kappa,
        "offsets": list(res.offsets),
        "u": list(res.u),
        "certified": res.certified,
    }
    return [row], True


def _cmd_kappa_sweep(params: dict, seed: int, quiet: bool):
    from . import thresholds

    rho_min = params["rho_min"]
    rho_max = params["rho_max"]
    steps = params["steps"]
    k_max = params["kmax"]
    if not 3 <= k_max <= thresholds.MAX_K:
        raise ValueError(f"kappa-sweep needs kmax in 3..{thresholds.MAX_K}")
    check_rho(rho_min)
    check_rho(rho_max)
    if steps < 2 or not rho_min < rho_max:
        raise ValueError("need steps >= 2 and rho_min < rho_max")
    progress = _progress_printer(quiet)
    rows = []
    for i, rho in enumerate(_linspace(rho_min, rho_max, steps)):
        results = {k: thresholds.kappa_c_k(rho, k) for k in range(1, k_max + 1)}
        best_k = min(results, key=lambda k: results[k].kappa)
        rows.append(
            {
                "rho": rho,
                "kappa_k1": results[1].kappa,
                "kappa_k2": results[2].kappa,
                "kappa_k3": results[3].kappa,
                "kappa_min": results[best_k].kappa,
                "k_argmin": best_k,
            }
        )
        if progress is not None and (i + 1) % 10 == 0:
            progress(f"kappa-sweep: {i + 1}/{steps} rows")
    return rows, False


def _cmd_threshold(params: dict, seed: int, quiet: bool):
    from . import estimation
    from .boolean_model import BoxSpec

    mixture = parse_mixture(params["mixture"])
    box = BoxSpec(dimension=params["d"], side=params["L"])
    est = estimation.estimate_lambda_c(
        mixture,
        box,
        trials=params["trials"],
        seed=seed,
        progress=_progress_printer(quiet),
    )
    return [_estimate_row(est)], True


def _cmd_alpha_sweep(params: dict, seed: int, quiet: bool):
    from . import estimation
    from .boolean_model import BoxSpec

    rho = params["rho"]
    d = params["d"]
    if "alphas" in params:
        text = params["alphas"]
        alphas = [float(a) for a in text.split(",")] if text else []
    else:
        alphas = _linspace(0.0, 1.0, params["alpha_count"])
    box = BoxSpec(dimension=d, side=params["L"])
    points = estimation.alpha_sweep(
        rho,
        alphas,
        d,
        box,
        trials=params["trials"],
        seed=seed,
        progress=_progress_printer(quiet),
    )
    rows = [_estimate_row(est, rho=rho, alpha=a) for a, est in zip(alphas, points)]
    return rows, False


def _cmd_gw(params: dict, seed: int, quiet: bool):
    from . import branching

    d = params["d"]
    rho = params["rho"]
    limit = branching.gw_critical_kappa_limit(rho)
    kappa = params.get("kappa", limit)
    row = {
        "d": d,
        "kappa": kappa,
        "rho": rho,
        "r_d_log": branching.perron_root_log(d, kappa, rho),
        "kappa_star_d": branching.gw_critical_kappa(d, rho),
        "kappa_star_limit": limit,
    }
    return [row], True


def _cmd_paths(params: dict, seed: int, quiet: bool):
    from . import pathcount

    d = params["d"]
    rho = params["rho"]
    kappa = params["kappa"]
    k = params["k"]
    run = pathcount.count_paths(
        d, rho, kappa, k, trials=params["trials"], seed=seed, progress=_progress_printer(quiet)
    )
    row = {
        "d": d,
        "rho": rho,
        "kappa": kappa,
        "k": k,
        "mean_N": run.mean_n,
        "se_N": run.se_n,
        "mean_M": run.mean_m,
        "se_M": run.se_m,
        "exact_M": pathcount.tuple_expectation_exact(d, rho, kappa, k),
    }
    return [row], True


def _cmd_slab(params: dict, seed: int, quiet: bool):
    from . import geometry

    spec = geometry.SlabSpec(
        dimension=params["d"],
        radius=params["r"],
        lower=params["a"],
        upper=params["b"],
    )
    row = {
        "d": spec.dimension,
        "r": spec.radius,
        "a": spec.lower,
        "b": spec.upper,
        "volume": geometry.slab_volume(spec),
        "log_volume": geometry.log_slab_volume(spec),
        "log_rate": geometry.slab_log_rate(spec),
    }
    return [row], True


# Command -> (the module its handler runs, the handler).  `_config_from_args`
# imports the module, so a run loads what its command needs, and only that,
# once its arguments are parsed; the handler's own import is then a lookup.
_COMMANDS = {
    "kappa": ("thresholds", _cmd_kappa),
    "kappa-sweep": ("thresholds", _cmd_kappa_sweep),
    "threshold": ("estimation", _cmd_threshold),
    "alpha-sweep": ("estimation", _cmd_alpha_sweep),
    "gw": ("branching", _cmd_gw),
    "paths": ("pathcount", _cmd_paths),
    "slab": ("geometry", _cmd_slab),
}


def dispatch(config: RunConfig, quiet: bool = True):
    """Run the command in a RunConfig; returns (rows, single_record)."""
    return _COMMANDS[config.command][1](config.params, config.seed, quiet)


def _format_csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def render(rows: list[dict], single: bool, fmt: str) -> str:
    if fmt == "json":
        payload = rows[0] if single and len(rows) == 1 else rows
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = list(rows[0].keys())
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_format_csv_value(row[f]) for f in fields])
    return buf.getvalue()


def _write_output(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _check_target(path: str) -> None:
    """Reject, before the run, a file name to write that is empty or a directory, or whose directory is missing."""
    if not path or os.path.isdir(path):
        raise ValueError(f"cannot write {path!r}: the name is empty or a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"cannot write {path!r}: its directory does not exist")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contperc",
        description="Continuum percolation toolkit: threshold constants, "
        "branching means and Monte Carlo threshold estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt: str) -> None:
        p.add_argument("--seed", default=str(DEFAULT_SEED), help="integer seed, or 'random'")
        p.add_argument("--format", choices=("json", "csv"), default=fmt)
        p.add_argument("--output", default=None, help="output path ('-' for stdout)")
        p.add_argument("--save-config", default=None, help="write the RunConfig JSON here ('-' for stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress progress on stderr")

    p = sub.add_parser("kappa", help="threshold constant for one rho")
    p.add_argument("--rho", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--kmax", type=int)
    add_common(p, "json")

    p = sub.add_parser("kappa-sweep", help="threshold constants over a rho range")
    p.add_argument("--rho-min", type=float, default=1.1)
    p.add_argument("--rho-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=90)
    p.add_argument("--kmax", type=int, default=3)
    add_common(p, "csv")

    p = sub.add_parser("threshold", help="Monte Carlo critical intensity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mixture", required=True, help="atoms as 'r:w[,r:w...]'")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--trials", type=int, default=200)
    # Accepted and ignored: the bisection tolerance of an earlier estimator,
    # kept so that existing command lines and saved configs still run.
    p.add_argument("--tol", type=float, default=None, help=argparse.SUPPRESS)
    add_common(p, "json")

    p = sub.add_parser("alpha-sweep", help="critical covered volume along a two-radius interpolation")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--alphas", default=None, help="comma-separated list; default evenly spaced")
    p.add_argument("--alpha-count", type=int, default=9)
    p.add_argument("--L", type=float, required=True, help="box side in units of the largest radius")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tol", type=float, default=None, help=argparse.SUPPRESS)  # ignored, as on threshold
    add_common(p, "csv")

    p = sub.add_parser("gw", help="two-type branching means and critical kappa")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--kappa", type=float, default=None, help="defaults to the limit critical value")
    add_common(p, "json")

    p = sub.add_parser("paths", help="alternating-path counts against exact oracles")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    add_common(p, "json")

    p = sub.add_parser("slab", help="spherical slab volume and log rate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    add_common(p, "json")

    p = sub.add_parser("replay", help="re-run a saved RunConfig byte for byte")
    p.add_argument("config_path")
    p.add_argument("--quiet", action="store_true")

    return parser


# Namespace keys that are not command parameters: the subcommand and add_common's options.
_NOT_PARAMS = {"command", "seed", "format", "output", "save_config", "quiet"}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed arguments; also imports the module the command runs."""
    importlib.import_module(f".{_COMMANDS[args.command][0]}", __package__)
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in _NOT_PARAMS and value is not None
    }
    return RunConfig(
        command=args.command,
        params=params,
        seed=_parse_seed(args.seed),
        output=args.output,
        fmt=args.format,
    )


def _replay_config(parser: argparse.ArgumentParser, path: str) -> RunConfig:
    """Parse a saved config as `[command, --key=value ...]`, as a fresh run is parsed."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror}") from exc
    saved = RunConfig.from_json(text)
    if str(saved.command).startswith("-"):  # argparse would read it as an option, such as --help
        raise ValueError(f"unknown command {saved.command!r}")
    argv = [saved.command, f"--seed={saved.seed}", f"--format={saved.fmt}"]
    if saved.output is not None:
        argv.append(f"--output={saved.output}")
    # --key=value, so that a value starting with '-' is not read as an option.
    options = {key: f"--{key.replace('_', '-')}={value}" for key, value in saved.params.items()}
    args, unread = parser.parse_known_args(argv + list(options.values()))
    config = _config_from_args(args)
    for key in config.params:
        if key not in saved.params:
            raise ValueError(f"the saved config has no parameter {key!r}")
    # argparse reads a key that abbreviates an option, or names a common one, as that option.
    for key, option in options.items():
        if key not in config.params and option not in unread:
            raise ValueError(f"the saved parameter {key!r} is read as another option")
    return config


def main(argv=None) -> int:
    """Run one command, or replay a saved config through the same parser; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "replay":
            config, save_config = _replay_config(parser, args.config_path), None
        else:
            config, save_config = _config_from_args(args), args.save_config
        for path in (config.output, save_config):
            if path not in (None, "-"):
                _check_target(path)
        rows, single = dispatch(config, quiet=args.quiet)
        _write_output(render(rows, single, config.fmt), config.output)
        if save_config:
            _write_output(config.to_json(), save_config)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
