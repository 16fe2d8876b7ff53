"""Command-line front end: reproducible runs with seeds and CSV/JSON output.

Exit codes: 0 success, 2 invalid arguments, 3 runtime or capacity failure.
Data goes to stdout (or --output); progress lines go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import secrets
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import branching, estimation, geometry, pathcount, thresholds
from .boolean_model import BoxSpec, RadiusMixture
from .errors import CapacityError

DEFAULT_SEED = 20260808

SWEEP_CSV_FIELDS = [
    "rho",
    "alpha",
    "d",
    "L",
    "trials",
    "lambda_c",
    "ci_low",
    "ci_high",
    "normalized",
    "covered_volume",
    "seed",
]


@dataclass
class RunConfig:
    """Everything needed to reproduce one run byte for byte."""

    command: str
    params: dict
    seed: int
    output: str | None
    fmt: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        return cls(
            command=data["command"],
            params=data["params"],
            seed=int(data["seed"]),
            output=data.get("output"),
            fmt=data.get("fmt", "json"),
        )


def parse_mixture(text: str) -> RadiusMixture:
    """Parse the mixture syntax 'r:w[,r:w...]'."""
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
    return int(text)


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def emit(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    return emit


def _estimate_row(est: estimation.ThresholdEstimate, rho=None, alpha=None) -> dict:
    return {
        "rho": rho,
        "alpha": alpha,
        "d": est.dimension,
        "L": est.box_side,
        "trials": est.trials_per_level,
        "lambda_c": est.lambda_c,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "normalized": est.normalized,
        "covered_volume": est.covered_volume,
        "seed": est.seed,
    }


def _cmd_kappa(params: dict, seed: int, quiet: bool):
    rho = float(params["rho"])
    if params.get("k") is not None:
        res = thresholds.kappa_c_k(rho, int(params["k"]))
    else:
        res = thresholds.kappa_c(rho, int(params.get("kmax", 6)))
    row = {
        "rho": rho,
        "k": res.k_used,
        "kappa": res.kappa,
        "offsets": list(res.offsets),
        "certified": res.certified,
    }
    return [row], True


def _cmd_kappa_sweep(params: dict, seed: int, quiet: bool):
    rho_min = float(params["rho_min"])
    rho_max = float(params["rho_max"])
    steps = int(params["steps"])
    k_max = int(params.get("kmax", 3))
    if not 3 <= k_max <= thresholds.MAX_K:
        raise ValueError(f"kappa-sweep needs kmax in 3..{thresholds.MAX_K}")
    if steps < 2 or not 1.0 < rho_min < rho_max <= thresholds.MAX_RHO:
        raise ValueError(f"need steps >= 2 and 1 < rho_min < rho_max <= {thresholds.MAX_RHO:g}")
    progress = _progress_printer(quiet)
    rows = []
    for i, rho in enumerate(np.linspace(rho_min, rho_max, steps)):
        results = {k: thresholds.kappa_c_k(float(rho), k) for k in range(1, k_max + 1)}
        best_k = min(results, key=lambda k: results[k].kappa)
        rows.append(
            {
                "rho": float(rho),
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
    mixture = parse_mixture(params["mixture"])
    box = BoxSpec(dimension=int(params["d"]), side=float(params["L"]))
    est = estimation.estimate_lambda_c(
        mixture,
        box,
        trials=int(params["trials"]),
        target_rel_tol=float(params.get("tol", 0.02)),
        seed=seed,
        progress=_progress_printer(quiet),
    )
    return [_estimate_row(est)], True


def _cmd_alpha_sweep(params: dict, seed: int, quiet: bool):
    rho = float(params["rho"])
    d = int(params["d"])
    if params.get("alphas"):
        alphas = [float(a) for a in str(params["alphas"]).split(",")]
    else:
        alphas = np.linspace(0.0, 1.0, int(params.get("alpha_count", 9))).tolist()
    box = BoxSpec(dimension=d, side=float(params["L"]))
    points = estimation.alpha_sweep(
        rho,
        alphas,
        d,
        box,
        trials=int(params["trials"]),
        seed=seed,
        target_rel_tol=float(params.get("tol", 0.02)),
        progress=_progress_printer(quiet),
    )
    rows = [_estimate_row(p.estimate, rho=p.rho, alpha=p.alpha) for p in points]
    return rows, False


def _cmd_gw(params: dict, seed: int, quiet: bool):
    d = int(params["d"])
    rho = float(params["rho"])
    limit = branching.gw_critical_kappa_limit(rho)
    kappa = float(params["kappa"]) if params.get("kappa") is not None else limit
    matrix = branching.mean_matrix(d, kappa, rho)
    row = {
        "d": d,
        "kappa": kappa,
        "rho": rho,
        "r_d_log": branching.perron_root_log(matrix),
        "kappa_star_d": branching.gw_critical_kappa(d, rho),
        "kappa_star_limit": limit,
    }
    return [row], True


def _cmd_paths(params: dict, seed: int, quiet: bool):
    d = int(params["d"])
    rho = float(params["rho"])
    kappa = float(params["kappa"])
    k = int(params["k"])
    run = pathcount.count_paths(d, rho, kappa, k, trials=int(params["trials"]), seed=seed)
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
    spec = geometry.SlabSpec(
        dimension=int(params["d"]),
        radius=float(params["r"]),
        lower=float(params["a"]),
        upper=float(params["b"]),
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


_COMMANDS = {
    "kappa": _cmd_kappa,
    "kappa-sweep": _cmd_kappa_sweep,
    "threshold": _cmd_threshold,
    "alpha-sweep": _cmd_alpha_sweep,
    "gw": _cmd_gw,
    "paths": _cmd_paths,
    "slab": _cmd_slab,
}


def dispatch(config: RunConfig, quiet: bool = True):
    """Run the command in a RunConfig; returns (rows, single_record)."""
    if config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    return _COMMANDS[config.command](config.params, config.seed, quiet)


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
        p.add_argument("--save-config", default=None, help="write the RunConfig JSON here")
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
    p.add_argument("--tol", type=float, default=0.02)
    add_common(p, "json")

    p = sub.add_parser("alpha-sweep", help="critical covered volume along a two-radius interpolation")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--alphas", default=None, help="comma-separated list; default evenly spaced")
    p.add_argument("--alpha-count", type=int, default=9)
    p.add_argument("--L", type=float, required=True, help="box side in units of the largest radius")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tol", type=float, default=0.02)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        if args.command == "replay":
            with open(args.config_path) as fh:
                config = RunConfig.from_json(fh.read())
            save_config = None
        else:
            config = _config_from_args(args)
            save_config = args.save_config
        rows, single = dispatch(config, quiet=getattr(args, "quiet", False))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    _write_output(render(rows, single, config.fmt), config.output)
    if save_config:
        with open(save_config, "w") as fh:
            fh.write(config.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
