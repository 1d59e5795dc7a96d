"""Command line front end.

Five subcommands cover the experiment surface: ``price`` solves one
problem and reports price/delta, ``table`` sweeps schemes x strikes x
mesh sizes against a reference, ``error-surface`` dumps per-node errors
against the closed form, ``converge`` runs a mesh-refinement study and
``paths`` simulates scenarios over a solved surface.  Parameters come
from an optional JSON config file, which may carry any known key, plus
flag overrides; each command takes only the flags of the settings it
reads (``COMMANDS``).  Every output is deterministic given (config,
seed) except the wall-clock ``runtime_ms`` that ``price`` prints and
writes.

Exit codes: 0 success, 2 configuration error (including an unread flag
and a request too large to store), 3 numerical abort (including a
log-price domain too narrow for the volatility or too wide for float64
accuracy, a price or delta outside the no-arbitrage bounds and a
``table`` with a failed cell).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .grid import MAX_LOG2N, MIN_LOG2N, build_grid
from .model import EXPLICIT_I, EXPLICIT_II
from .oracles import binomial_bsde, black_scholes_call, black_scholes_call_curve
from .pathsim import GENERATOR, simulate_paths
from .pricing import (
    STYLE_AMERICAN,
    STYLE_EUROPEAN,
    STYLES,
    DomainCoverageBreach,
    MarketParams,
    PriceBoundBreach,
    build_pricing_problem,
    check_delta_bounds,
    check_domain_coverage,
    check_price_bounds,
    extract_delta,
    spot_delta,
)
from .solver import SolveAborted, solve, value_at_start

# Failures of one solve; each maps to exit code 3.
NUMERICAL_ABORTS = (DomainCoverageBreach, SolveAborted, PriceBoundBreach)

SCHEME_BY_NAME = {"explicit1": EXPLICIT_I, "explicit2": EXPLICIT_II}
NAME_BY_SCHEME = {v: k for k, v in SCHEME_BY_NAME.items()}


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class Numerics:
    """Discretization settings of one solve."""

    log2N: int = 12
    half_width: float = 5.0
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


# Every setting as flag -> (config section, field, argparse options).
# Its config key is the flag's argparse destination, the flag name with
# "_" for "-"; the section None is the top level of a config file, whose
# fields are RunConfig's.
FLAGS = {
    "--spot": ("market", "S0", {"type": float}),
    "--strike": ("market", "K", {"type": float}),
    "--rate": ("market", "r", {"type": float}),
    "--borrow-rate": ("market", "R", {"type": float}),
    "--mu": ("market", "mu", {"type": float}),
    "--div": ("market", "div", {"type": float}),
    "--sigma": ("market", "sigma", {"type": float}),
    "--maturity": ("market", "T", {"type": float}),
    "--style": ("market", "style", {"choices": list(STYLES)}),
    "--log2N": ("numerics", "log2N", {"type": int, "help": "log2 of grid size"}),
    "--half-width": ("numerics", "half_width", {"type": float}),
    "--n": ("numerics", "n", {"type": int, "help": "number of time steps"}),
    "--scheme": ("numerics", "scheme", {"choices": sorted(SCHEME_BY_NAME)}),
    "--seed": (None, "seed", {"type": int}),
    "--paths": (None, "path_count", {"type": int, "help": "number of simulated paths"}),
    "--out": (None, "out", {"help": "output CSV path"}),
    "--strikes": (None, "strikes", {"help": "comma separated strike list"}),
    "--n-list": (None, "n_list", {"help": "comma separated mesh sizes"}),
    "--schemes": (None, "schemes", {"help": "comma separated scheme list"}),
}
SETTINGS = {flag[2:].replace("-", "_"): entry[:2] for flag, entry in FLAGS.items()}


def _parse_scheme(name) -> str:
    scheme = SCHEME_BY_NAME.get(name, name) if isinstance(name, str) else None
    if scheme not in NAME_BY_SCHEME:
        raise ConfigError(f"scheme must be one of {sorted(SCHEME_BY_NAME)}; got {name!r}")
    return scheme


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


def _file_settings(data: dict):
    """Yield (key, value) for every setting in a config file.

    A file may carry any known key, whichever command reads it.
    """
    for key, value in data.items():
        if key in ("market", "numerics"):
            if not isinstance(value, dict):
                raise ConfigError(f"config field {key!r} must be an object")
            for inner, inner_value in value.items():
                if SETTINGS.get(inner, (None,))[0] != key:
                    raise ConfigError(f"unknown {key} field {inner!r}")
                yield inner, inner_value
        elif key in SETTINGS and SETTINGS[key][0] is None:
            yield key, value
        else:
            raise ConfigError(f"unknown config key {key!r}")


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, JSON config file and flag overrides."""
    given = dict(_file_settings(_load_json(args.config))) if args.config else {}
    given.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    sections: dict = {"market": {}, "numerics": {}, None: {}}
    for key, value in given.items():
        section, field = SETTINGS[key]
        sections[section][field] = value

    try:
        market = MarketParams(**sections["market"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid market parameters: {exc}") from exc
    numerics = _numerics(sections["numerics"])

    extra = sections[None]
    strikes = _as_list("strikes", extra.get("strikes"), RunConfig.strikes, float)
    n_list = _as_list("n_list", extra.get("n_list"), RunConfig.n_list, int)
    schemes = tuple(
        _parse_scheme(s) for s in _as_list("schemes", extra.get("schemes"), RunConfig.schemes, str)
    )

    seed = _number("seed", extra.get("seed", RunConfig.seed))
    if int(seed) != seed or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    path_count = _number("paths", extra.get("path_count", RunConfig.path_count))
    if int(path_count) != path_count or path_count < 1:
        raise ConfigError("paths must be a positive integer")
    out = extra.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string; got {out!r}")

    return RunConfig(market, numerics, int(seed), int(path_count), out, strikes, n_list, schemes)


def _number(key: str, value):
    """value if it is a finite real number, else a ConfigError naming key:
    a JSON null, string or infinity stops here, not inside a comparison."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not np.isfinite(value)
    ):
        raise ConfigError(f"{key} must be a finite number; got {value!r}")
    return value


def _as_list(key: str, value, default, kind) -> tuple:
    """A comma separated string or a JSON list as a tuple of kind(entry)."""
    if value is None:
        return default
    if isinstance(value, str):
        value = [p.strip() for p in value.split(",") if p.strip()]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list; got {value!r}")
    try:
        return tuple(kind(entry) for entry in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {key} entries {value!r}: {exc}") from exc


def _numerics(fields: dict) -> Numerics:
    numerics = Numerics(
        **{k: _parse_scheme(v) if k == "scheme" else _number(k, v) for k, v in fields.items()}
    )
    if int(numerics.log2N) != numerics.log2N or not (
        MIN_LOG2N <= numerics.log2N <= MAX_LOG2N
    ):
        raise ConfigError(f"log2N must be an integer in [{MIN_LOG2N}, {MAX_LOG2N}]")
    if not numerics.half_width > 0:
        raise ConfigError("half_width must be positive")
    if int(numerics.n) != numerics.n or numerics.n < 1:
        raise ConfigError("n must be a positive integer")
    return numerics


def _closed_form_available(market: MarketParams) -> bool:
    # The driver must be linear (equal rates); an American call is only
    # equivalent to the European one without dividends.
    return market.R == market.r and (
        market.style == STYLE_EUROPEAN or market.div == 0.0
    )


def _require_closed_form(market: MarketParams, command: str) -> None:
    if not _closed_form_available(market):
        raise ConfigError(
            f"{command} needs a closed-form reference: equal rates and "
            "either european style or zero dividend"
        )


def _market_problem(market: MarketParams, numerics: Numerics):
    """The pricing problem and its grid, once the half-width covers the
    increment law (DomainCoverageBreach otherwise)."""
    check_domain_coverage(market, numerics.half_width)
    problem = build_pricing_problem(market, numerics.n, numerics.scheme)
    return problem, build_grid(problem.x_init, numerics.half_width, numerics.log2N)


def _check_start(market: MarketParams, y0: float, z0: float) -> None:
    """Raise PriceBoundBreach unless the start price y0 and the delta
    from z0 lie within their static no-arbitrage bounds."""
    check_price_bounds(y0, market)
    check_delta_bounds(spot_delta(z0, market), market)


def _solve_market(market: MarketParams, numerics: Numerics):
    """Build and solve the pricing problem; return its start row.

    Before the solve the half-width must cover the increment law
    (DomainCoverageBreach); after it the price and the delta at the
    start node are checked against their static no-arbitrage bounds
    (PriceBoundBreach).  Both map to exit code 3.
    """
    problem, grid = _market_problem(market, numerics)
    surface = solve(problem, grid)
    _check_start(market, *value_at_start(surface))
    return surface


def _csv_line(fields) -> str:
    """One CSV record of numbers and plain words, as ``csv.writer``'s
    default dialect writes them: str() of each field, no quoting
    (no field holds a comma, quote or line break), "\r\n" at the end."""
    return ",".join(map(str, fields)) + "\r\n"


def _write_csv(path: str, header: list[str], lines) -> None:
    """Write the header and then an iterable of CSV text, consuming it once."""
    with open(path, "w", newline="") as handle:
        handle.write(_csv_line(header))
        handle.writelines(lines)


def cmd_price(config: RunConfig) -> int:
    started = time.perf_counter()
    surface = _solve_market(config.market, config.numerics)
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
            map(_csv_line, [[y0, delta, y0, z0, runtime_ms]]),
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
    failed = 0
    for scheme in config.schemes:
        for strike in config.strikes:
            market = replace(config.market, K=strike)
            for n in config.n_list:
                label = NAME_BY_SCHEME[scheme]
                try:
                    surface = _solve_market(
                        market, replace(config.numerics, n=n, scheme=scheme)
                    )
                    y0, _ = value_at_start(surface)
                    delta = extract_delta(surface, market)
                    ref_price, _ = _reference(market, n)
                    rel_err = abs(y0 - ref_price) / abs(ref_price) * 100.0
                except NUMERICAL_ABORTS as exc:
                    print(
                        f"cell (scheme={label}, K={strike}, n={n}) failed: {exc}",
                        file=sys.stderr,
                    )
                    y0 = delta = ref_price = rel_err = float("nan")
                    failed += 1
                rows.append([label, strike, n, y0, delta, ref_price, rel_err])
                print(
                    f"scheme={label} K={strike:g} n={n} price={y0:.4f} "
                    f"delta={delta:.4f} ref={ref_price:.4f} rel_err_pct={rel_err:.4f}"
                )
    out = config.out or "table.csv"
    _write_csv(
        out,
        ["scheme", "K", "n", "price", "delta", "ref_price", "rel_err_pct"],
        map(_csv_line, rows),
    )
    print(f"wrote {out}")
    if failed:
        print(f"numerical abort: {failed} of {len(rows)} table cells failed", file=sys.stderr)
        return 3
    return 0


def cmd_error_surface(config: RunConfig) -> int:
    _require_closed_form(config.market, "error-surface")
    market = config.market
    surface = _solve_market(market, config.numerics)
    x = surface.grid.space_nodes()
    spots = np.exp(x)
    ref_price, ref_delta = black_scholes_call_curve(
        spots, market.K, market.r, market.div, market.sigma, market.T
    )
    node_delta = surface.udot / (market.sigma * spots)
    err_price = np.abs(surface.u - ref_price)
    err_delta = np.abs(node_delta - ref_delta)
    floor = 1e-300  # keeps log10 finite at exact zeros
    log_errs = np.log10(np.maximum((err_price, err_delta), floor))
    rows = np.column_stack((x, err_price, err_delta, *log_errs)).tolist()
    out = config.out or "error_surface.csv"
    _write_csv(
        out,
        ["x", "abs_err_price", "abs_err_delta", "log10_abs_err_price", "log10_abs_err_delta"],
        map(_csv_line, rows),
    )
    # the truncated domain's boundary error lives at the edge nodes, so
    # the headline is the interior a price is read from
    lo, hi = x.size // 4, 3 * x.size // 4
    interior = err_price[lo:hi]
    worst = int(np.argmax(err_price))
    print(
        f"interior (nodes {lo}..{hi - 1}) max error {interior.max():.3e} "
        f"median {np.median(interior):.3e}"
    )
    print(f"overall max error {err_price[worst]:.3e} at x={x[worst]:.4f}")
    print(f"wrote {out}")
    return 0


def cmd_converge(config: RunConfig) -> int:
    if len(config.n_list) < 3:
        raise ConfigError("convergence study needs at least 3 mesh sizes")
    if len(set(config.n_list)) != len(config.n_list):
        raise ConfigError(
            f"convergence study needs distinct mesh sizes; got {list(config.n_list)}"
        )
    _require_closed_form(config.market, "converge")
    market = config.market
    ref = black_scholes_call(
        market.S0, market.K, market.r, market.div, market.sigma, market.T
    ).price
    rows = []
    errors = []
    for idx, n in enumerate(config.n_list):
        surface = _solve_market(market, replace(config.numerics, n=n))
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
    _write_csv(out, ["n", "abs_err", "ratio", "estimated_order"], map(_csv_line, rows))
    print(f"wrote {out}")
    return 0


def _path_lines(paths):
    """Yield the long-format CSV text one path at a time.

    Each path is one string of its n+1 lines "id,t,X,S,Y,Z,A\r\n",
    written as ``_csv_line`` writes a record; the t column is formatted
    once for all paths.
    """
    times = [f"{t}," for t in paths.times.tolist()]
    for index, x in enumerate(paths.x):
        head = f"{index},"
        columns = (x, np.exp(x), paths.y[index], paths.z[index], paths.a[index])
        yield "".join([
            f"{head}{t}{','.join(map(str, row))}\r\n"
            for t, row in zip(times, np.column_stack(columns).tolist())
        ])


def cmd_paths(config: RunConfig) -> int:
    problem, grid = _market_problem(config.market, config.numerics)
    paths = simulate_paths(problem, grid, config.path_count, config.seed)
    _check_start(config.market, paths.y[0, 0], paths.z[0, 0])
    out = config.out or "paths.csv"
    _write_csv(out, ["path_id", "t", "X", "S", "Y", "Z", "A"], _path_lines(paths))
    print(
        f"simulated {config.path_count} paths with {GENERATOR} "
        f"(seed={config.seed}, per-path seed pair), "
        f"{np.count_nonzero(paths.clamped)} clamped"
    )
    print(f"wrote {out}")
    return 0


_MARKET_FLAGS = (
    "--spot", "--strike", "--rate", "--borrow-rate", "--mu", "--div", "--sigma",
    "--maturity", "--style",
)
_SOLVE_FLAGS = (*_MARKET_FLAGS, "--log2N", "--half-width", "--n", "--scheme")

# Each command with its help and the flags of the settings it reads;
# every command also takes --config and --out.
COMMANDS = {
    "price": (cmd_price, "solve one pricing problem and print price/delta", _SOLVE_FLAGS),
    "table": (
        cmd_table,
        "sweep schemes x strikes x mesh sizes into a CSV",
        (*(f for f in _MARKET_FLAGS if f != "--strike"), "--log2N", "--half-width",
         "--strikes", "--n-list", "--schemes"),
    ),
    "error-surface": (
        cmd_error_surface, "per-node absolute errors against the closed form", _SOLVE_FLAGS
    ),
    "converge": (
        cmd_converge,
        "mesh refinement study with empirical order",
        (*_MARKET_FLAGS, "--log2N", "--half-width", "--scheme", "--n-list"),
    ),
    "paths": (
        cmd_paths,
        "simulate scenarios over the solved surface",
        (*_SOLVE_FLAGS, "--seed", "--paths"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convbsde",
        description="Spectral convolution pricer for (reflected) backward SDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        # no abbreviations: table --strike must not mean --strikes
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        cmd.add_argument("--config", help="JSON config file")
        for flag in ("--out", *flags):
            cmd.add_argument(flag, **FLAGS[flag][2])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        return COMMANDS[args.command][0](config)
    except NUMERICAL_ABORTS as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
