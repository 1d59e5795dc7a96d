"""Command line front end.

Five subcommands cover the experiment surface: ``price`` solves one
problem and reports price/delta, ``table`` sweeps schemes x strikes x
mesh sizes against a reference, ``error-surface`` dumps per-node errors
against the closed form, ``converge`` runs a mesh-refinement study and
``paths`` simulates scenarios over a solved surface.  Parameters come
from an optional JSON config file plus flag overrides; every command is
deterministic given (config, seed).

Exit codes: 0 success, 2 configuration error (including a request
too large to store), 3 numerical abort (including a price outside the
no-arbitrage bounds).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .grid import MAX_LOG2N, MIN_LOG2N, build_grid
from .model import EXPLICIT_I, EXPLICIT_II
from .oracles import binomial_bsde, black_scholes_call, black_scholes_call_curve
from .pathsim import simulate_paths
from .pricing import (
    STYLE_AMERICAN,
    STYLE_EUROPEAN,
    STYLES,
    MarketParams,
    PriceBoundBreach,
    build_pricing_problem,
    check_price_bounds,
    extract_delta,
)
from .solver import SolveAborted, solve, value_at_start

SCHEME_BY_NAME = {"explicit1": EXPLICIT_I, "explicit2": EXPLICIT_II}
NAME_BY_SCHEME = {v: k for k, v in SCHEME_BY_NAME.items()}


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class Numerics:
    """Discretization settings shared by all commands."""

    log2N: int = 12
    half_width: float = 5.0
    epsilon: float = 5.0
    n: int = 1000
    scheme: str = EXPLICIT_II


@dataclass(frozen=True)
class RunConfig:
    market: MarketParams
    numerics: Numerics
    seed: int = 0
    path_count: int = 50
    out: str | None = None
    strikes: tuple = (90.0, 100.0, 110.0)
    n_list: tuple = (500, 1000, 2000, 5000)
    schemes: tuple = (EXPLICIT_I, EXPLICIT_II)


_MARKET_KEYS = {
    "spot": "S0",
    "strike": "K",
    "rate": "r",
    "borrow_rate": "R",
    "mu": "mu",
    "div": "div",
    "sigma": "sigma",
    "maturity": "T",
    "style": "style",
}
_NUMERICS_KEYS = ("log2N", "half_width", "epsilon", "n", "scheme")
# Top-level config keys, named as their flags' destinations.
_RUN_KEYS = ("seed", "paths", "out", "strikes", "n_list", "schemes")


def _parse_scheme(name) -> str:
    if name in SCHEME_BY_NAME:
        return SCHEME_BY_NAME[name]
    if name in NAME_BY_SCHEME:
        return name
    raise ConfigError(f"scheme must be one of {sorted(SCHEME_BY_NAME)}; got {name!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, JSON config file and flag overrides."""
    market_kwargs: dict = {}
    numerics_kwargs: dict = {}
    extra: dict = {}

    if getattr(args, "config", None):
        data = _load_json(args.config)
        unknown = set(data) - {"market", "numerics", *_RUN_KEYS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        market_section = data.get("market", {})
        if not isinstance(market_section, dict):
            raise ConfigError("config field 'market' must be an object")
        for key, value in market_section.items():
            if key not in _MARKET_KEYS:
                raise ConfigError(f"unknown market field {key!r}")
            market_kwargs[_MARKET_KEYS[key]] = value
        numerics_section = data.get("numerics", {})
        if not isinstance(numerics_section, dict):
            raise ConfigError("config field 'numerics' must be an object")
        for key, value in numerics_section.items():
            if key not in _NUMERICS_KEYS:
                raise ConfigError(f"unknown numerics field {key!r}")
            numerics_kwargs[key] = value
        for key in _RUN_KEYS:
            if key in data:
                extra[key] = data[key]

    for flag, field in _MARKET_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            market_kwargs[field] = value
    for flag in _NUMERICS_KEYS:
        value = getattr(args, flag, None)
        if value is not None:
            numerics_kwargs[flag] = value
    for flag in _RUN_KEYS:
        value = getattr(args, flag, None)
        if value is not None:
            extra[flag] = value

    if "scheme" in numerics_kwargs:
        numerics_kwargs["scheme"] = _parse_scheme(numerics_kwargs["scheme"])

    try:
        market = MarketParams(**market_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid market parameters: {exc}") from exc
    try:
        numerics = Numerics(**numerics_kwargs)
    except TypeError as exc:
        raise ConfigError(f"invalid numerics: {exc}") from exc
    _validate_numerics(numerics)

    strikes = tuple(float(k) for k in _as_list(extra.get("strikes"), RunConfig.strikes, float))
    n_list = tuple(int(v) for v in _as_list(extra.get("n_list"), RunConfig.n_list, int))
    schemes = tuple(
        _parse_scheme(s) for s in _as_list(extra.get("schemes"), RunConfig.schemes, str)
    )

    seed = extra.get("seed", RunConfig.seed)
    if int(seed) != seed or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    path_count = extra.get("paths", RunConfig.path_count)
    if int(path_count) != path_count or path_count < 1:
        raise ConfigError("paths must be a positive integer")

    return RunConfig(
        market=market,
        numerics=numerics,
        seed=int(seed),
        path_count=int(path_count),
        out=extra.get("out"),
        strikes=strikes,
        n_list=n_list,
        schemes=schemes,
    )


def _as_list(value, default, kind):
    if value is None:
        return default
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        try:
            return [kind(p.strip()) if kind is not str else p.strip() for p in parts]
        except ValueError as exc:
            raise ConfigError(f"cannot parse list value {value!r}: {exc}") from exc
    if isinstance(value, (list, tuple)):
        return list(value)
    raise ConfigError(f"expected a list, got {value!r}")


def _validate_numerics(numerics: Numerics) -> None:
    if int(numerics.log2N) != numerics.log2N or not (
        MIN_LOG2N <= numerics.log2N <= MAX_LOG2N
    ):
        raise ConfigError(f"log2N must be an integer in [{MIN_LOG2N}, {MAX_LOG2N}]")
    if not numerics.half_width > 0:
        raise ConfigError("half_width must be positive")
    if not numerics.epsilon > 0:
        raise ConfigError("epsilon must be positive")
    if int(numerics.n) != numerics.n or numerics.n < 1:
        raise ConfigError("n must be a positive integer")
    if numerics.scheme not in NAME_BY_SCHEME:
        raise ConfigError(f"scheme must be one of {sorted(SCHEME_BY_NAME)}")


def _closed_form_available(market: MarketParams) -> bool:
    # The driver must be linear (equal rates); an American call is only
    # equivalent to the European one without dividends.
    return market.R == market.r and (
        market.style == STYLE_EUROPEAN or market.div == 0.0
    )


def _solve_market(
    market: MarketParams, numerics: Numerics, n=None, scheme=None, full_surface=False
):
    """Build and solve the pricing problem; return (problem, surface).

    Only ``paths`` reads past row 0, so every other command keeps the
    start row alone.  The price at the start node is checked against
    the static no-arbitrage bounds (PriceBoundBreach, exit code 3).
    """
    n = numerics.n if n is None else n
    scheme = numerics.scheme if scheme is None else scheme
    problem = build_pricing_problem(market, n, scheme)
    grid = build_grid(problem.x_init, numerics.half_width, numerics.log2N)
    surface = solve(
        problem, grid, epsilon=numerics.epsilon, full_surface=full_surface
    )
    check_price_bounds(value_at_start(surface)[0], market)
    return problem, surface


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write a header and an iterable of rows, consuming it once."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_price(config: RunConfig) -> int:
    started = time.perf_counter()
    _, surface = _solve_market(config.market, config.numerics)
    y0, z0 = value_at_start(surface)
    delta = extract_delta(surface, config.market)
    runtime_ms = (time.perf_counter() - started) * 1e3
    print(
        f"price={y0:.4f} delta={delta:.4f} y0={y0:.4f} z0={z0:.4f} "
        f"runtime_ms={runtime_ms:.0f}"
    )
    if config.out:
        _write_csv(
            config.out,
            ["price", "delta", "y0", "z0", "runtime_ms"],
            [[y0, delta, y0, z0, runtime_ms]],
        )
        print(f"wrote {config.out}")
    return 0


def _reference(market: MarketParams, n: int) -> tuple[float, float]:
    if _closed_form_available(market):
        ref = black_scholes_call(
            market.S0, market.K, market.r, market.div, market.sigma, market.T
        )
        return ref.price, ref.delta
    return binomial_bsde(market, n, reflected=market.style == STYLE_AMERICAN)


def cmd_table(config: RunConfig) -> int:
    if not config.strikes:
        raise ConfigError("strike list must not be empty")
    if not config.n_list:
        raise ConfigError("n list must not be empty")
    if not config.schemes:
        raise ConfigError("scheme list must not be empty")
    rows = []
    for scheme in config.schemes:
        for strike in config.strikes:
            market = replace(config.market, K=strike)
            for n in config.n_list:
                label = NAME_BY_SCHEME[scheme]
                try:
                    _, surface = _solve_market(market, config.numerics, n=n, scheme=scheme)
                    y0, _ = value_at_start(surface)
                    delta = extract_delta(surface, market)
                    ref_price, _ = _reference(market, n)
                    rel_err = abs(y0 - ref_price) / abs(ref_price) * 100.0
                except (SolveAborted, PriceBoundBreach) as exc:
                    print(
                        f"cell (scheme={label}, K={strike}, n={n}) failed: {exc}",
                        file=sys.stderr,
                    )
                    y0 = delta = ref_price = rel_err = float("nan")
                rows.append([label, strike, n, y0, delta, ref_price, rel_err])
                print(
                    f"scheme={label} K={strike:g} n={n} price={y0:.4f} "
                    f"delta={delta:.4f} ref={ref_price:.4f} rel_err_pct={rel_err:.4f}"
                )
    out = config.out or "table.csv"
    _write_csv(
        out,
        ["scheme", "K", "n", "price", "delta", "ref_price", "rel_err_pct"],
        rows,
    )
    print(f"wrote {out}")
    return 0


def cmd_error_surface(config: RunConfig) -> int:
    if not _closed_form_available(config.market):
        raise ConfigError(
            "error-surface needs a closed-form reference: equal rates and "
            "either european style or zero dividend"
        )
    market = config.market
    _, surface = _solve_market(market, config.numerics)
    x = surface.grid.space_nodes(include_right=True)
    spots = np.exp(x)
    ref_price, ref_delta = black_scholes_call_curve(
        spots, market.K, market.r, market.div, market.sigma, market.T
    )
    node_delta = surface.udot[0] / (market.sigma * spots)
    err_price = np.abs(surface.u[0] - ref_price)
    err_delta = np.abs(node_delta - ref_delta)
    floor = 1e-300  # keeps log10 finite at exact zeros
    rows = [
        [
            float(x[k]),
            float(err_price[k]),
            float(err_delta[k]),
            float(np.log10(max(err_price[k], floor))),
            float(np.log10(max(err_delta[k], floor))),
        ]
        for k in range(x.size)
    ]
    out = config.out or "error_surface.csv"
    _write_csv(
        out,
        ["x", "abs_err_price", "abs_err_delta", "log10_abs_err_price", "log10_abs_err_delta"],
        rows,
    )
    interior = err_price[x.size // 4 : 3 * x.size // 4]
    print(
        f"max error {err_price.max():.3e} interior median {np.median(interior):.3e}"
    )
    print(f"wrote {out}")
    return 0


def cmd_converge(config: RunConfig) -> int:
    if len(config.n_list) < 3:
        raise ConfigError("convergence study needs at least 3 mesh sizes")
    if len(set(config.n_list)) != len(config.n_list):
        raise ConfigError(
            f"convergence study needs distinct mesh sizes; got {list(config.n_list)}"
        )
    if not _closed_form_available(config.market):
        raise ConfigError(
            "converge needs a closed-form reference: equal rates and "
            "either european style or zero dividend"
        )
    market = config.market
    ref = black_scholes_call(
        market.S0, market.K, market.r, market.div, market.sigma, market.T
    ).price
    rows = []
    errors = []
    for idx, n in enumerate(config.n_list):
        _, surface = _solve_market(market, config.numerics, n=n)
        y0, _ = value_at_start(surface)
        err = abs(y0 - ref)
        errors.append(err)
        if idx == 0:
            ratio = order = float("nan")
        else:
            prev_n, prev_err = config.n_list[idx - 1], errors[idx - 1]
            ratio = prev_err / err if err > 0 else float("inf")
            order = np.log(ratio) / np.log(n / prev_n)
        rows.append([n, err, ratio, order])
        print(f"n={n} abs_err={err:.6e} ratio={ratio:.3f} order={order:.3f}")
    slope = np.polyfit(np.log(config.n_list), np.log(errors), 1)[0]
    print(f"least-squares order: {-slope:.3f}")
    out = config.out or "converge.csv"
    _write_csv(out, ["n", "abs_err", "ratio", "estimated_order"], rows)
    print(f"wrote {out}")
    return 0


def _path_rows(bundles):
    """Yield the long-format CSV rows of the bundles one at a time."""
    for bundle in bundles:
        for i in range(bundle.times.size):
            x = float(bundle.x_path[i])
            yield [
                bundle.path_index,
                float(bundle.times[i]),
                x,
                float(np.exp(x)),
                float(bundle.y_path[i]),
                float(bundle.z_path[i]),
                float(bundle.a_path[i]),
            ]


def cmd_paths(config: RunConfig) -> int:
    problem, surface = _solve_market(config.market, config.numerics, full_surface=True)
    bundles = simulate_paths(problem, surface, config.path_count, config.seed)
    out = config.out or "paths.csv"
    _write_csv(out, ["path_id", "t", "X", "S", "Y", "Z", "A"], _path_rows(bundles))
    clamped = sum(1 for b in bundles if b.clamped)
    print(
        f"simulated {len(bundles)} paths with {bundles[0].generator} "
        f"(seed={config.seed}, per-path seed pair), {clamped} clamped"
    )
    print(f"wrote {out}")
    return 0


COMMANDS = {
    "price": cmd_price,
    "table": cmd_table,
    "error-surface": cmd_error_surface,
    "converge": cmd_converge,
    "paths": cmd_paths,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convbsde",
        description="Spectral convolution pricer for (reflected) backward SDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("price", "solve one pricing problem and print price/delta"),
        ("table", "sweep schemes x strikes x mesh sizes into a CSV"),
        ("error-surface", "per-node absolute errors against the closed form"),
        ("converge", "mesh refinement study with empirical order"),
        ("paths", "simulate scenarios over the solved surface"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--scheme", choices=sorted(SCHEME_BY_NAME))
        cmd.add_argument("--n", type=int, help="number of time steps")
        cmd.add_argument("--log2N", type=int, dest="log2N", help="log2 of grid size")
        cmd.add_argument("--half-width", type=float, dest="half_width")
        cmd.add_argument("--epsilon", type=float)
        cmd.add_argument("--strike", type=float)
        cmd.add_argument("--spot", type=float)
        cmd.add_argument("--rate", type=float, dest="rate")
        cmd.add_argument("--borrow-rate", type=float, dest="borrow_rate")
        cmd.add_argument("--mu", type=float)
        cmd.add_argument("--div", type=float)
        cmd.add_argument("--sigma", type=float)
        cmd.add_argument("--maturity", type=float)
        cmd.add_argument("--style", choices=list(STYLES))
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--paths", type=int, help="number of simulated paths")
        cmd.add_argument("--out", help="output CSV path")
        if name in ("table", "converge"):
            cmd.add_argument("--strikes", help="comma separated strike list")
            cmd.add_argument("--n-list", dest="n_list", help="comma separated mesh sizes")
            cmd.add_argument("--schemes", help="comma separated scheme list")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        return COMMANDS[args.command](config)
    except (SolveAborted, PriceBoundBreach) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
