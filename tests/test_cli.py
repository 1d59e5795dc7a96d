"""End-to-end tests of the command line interface.

Commands run in-process through main() with temporary output paths, so
exit codes, stdout formatting and CSV artifacts are all checked without
spawning subprocesses.
"""

import contextlib
import csv
import io
import json
import re
import shlex
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convbsde import (
    EXPLICIT_I,
    EXPLICIT_II,
    STYLE_AMERICAN,
    STYLE_EUROPEAN,
    STYLES,
    DomainCoverageBreach,
    MarketParams,
    SolveAborted,
    black_scholes_call,
    build_grid,
    build_pricing_problem,
    check_domain_coverage,
    simulate_paths,
    solve,
)
import convbsde.cli as cli_module
import convbsde.solver as solver_module
from convbsde.pricing import DELTA_SLACK, MAX_HALF_WIDTH
from convbsde.cli import RunConfig, build_parser, load_config, main


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _parse_kv(line):
    return dict(pair.split("=", 1) for pair in line.split())


def test_price_prints_four_decimal_summary(tmp_path, capsys):
    out = tmp_path / "price.csv"
    rc = main(["price", "--n", "200", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    first = captured.out.splitlines()[0]
    assert re.fullmatch(
        r"price=\d+\.\d{4} delta=\d+\.\d{4} y0=\d+\.\d{4} z0=-?\d+\.\d{4} "
        r"runtime_ms=\d+",
        first,
    )
    kv = _parse_kv(first)
    ref = black_scholes_call(100.0, 100.0, 0.01, 0.0, 0.2, 1.0)
    assert float(kv["price"]) == pytest.approx(ref.price, abs=5e-3)
    assert float(kv["delta"]) == pytest.approx(ref.delta, abs=5e-3)
    rows = _read_csv(out)
    assert len(rows) == 1
    # CSV retains full precision; it must agree with the printed rounding
    assert round(float(rows[0]["price"]), 4) == float(kv["price"])
    assert round(float(rows[0]["delta"]), 4) == float(kv["delta"])


def test_config_file_sets_market_and_flags_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"market": {"strike": 110.0}, "numerics": {"n": 200}})
    )
    rc = main(["price", "--config", str(config)])
    assert rc == 0
    kv = _parse_kv(capsys.readouterr().out.splitlines()[0])
    ref110 = black_scholes_call(100.0, 110.0, 0.01, 0.0, 0.2, 1.0)
    assert float(kv["price"]) == pytest.approx(ref110.price, abs=5e-3)
    # a flag beats the same setting in the file
    rc = main(["price", "--config", str(config), "--strike", "90"])
    assert rc == 0
    kv = _parse_kv(capsys.readouterr().out.splitlines()[0])
    ref90 = black_scholes_call(100.0, 90.0, 0.01, 0.0, 0.2, 1.0)
    assert float(kv["price"]) == pytest.approx(ref90.price, abs=5e-3)


def test_config_file_run_keys_match_their_flags(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "seed": 7,
                "paths": 3,
                "out": "sweep.csv",
                "strikes": [95.0, 105.0],
                "n_list": [50, 100, 200],
                "schemes": ["explicit1"],
            }
        )
    )
    parser = build_parser()
    # one file serves every command; each command's flags set its own keys
    table_file = load_config(parser.parse_args(["table", "--config", str(config)]))
    table_flags = load_config(
        parser.parse_args(
            ["table", "--out", "sweep.csv", "--strikes", "95,105", "--n-list", "50,100,200",
             "--schemes", "explicit1"]
        )
    )
    fields = ("out", "strikes", "n_list", "schemes")
    assert [getattr(table_file, f) for f in fields] == [getattr(table_flags, f) for f in fields]
    assert table_file.out == "sweep.csv"
    assert table_file.strikes == (95.0, 105.0)
    assert table_file.n_list == (50, 100, 200)
    assert table_file.schemes == (EXPLICIT_I,)
    paths_file = load_config(parser.parse_args(["paths", "--config", str(config)]))
    paths_flags = load_config(parser.parse_args(["paths", "--seed", "7", "--paths", "3"]))
    assert (paths_file.seed, paths_file.path_count) == (paths_flags.seed, paths_flags.path_count)
    assert (paths_file.seed, paths_file.path_count) == (7, 3)
    # without either form the defaults are RunConfig's
    default = load_config(parser.parse_args(["table"]))
    assert default == RunConfig(market=default.market, numerics=default.numerics)


# The settings each command reads, and with them the flags it accepts
# besides --config and --out.
MARKET_FLAGS = {
    "--spot", "--strike", "--rate", "--borrow-rate", "--mu", "--div", "--sigma",
    "--maturity", "--style",
}
READS = {
    "price": MARKET_FLAGS | {"--log2N", "--half-width", "--n", "--scheme"},
    "error-surface": MARKET_FLAGS | {"--log2N", "--half-width", "--n", "--scheme"},
    "paths": MARKET_FLAGS | {"--log2N", "--half-width", "--n", "--scheme", "--seed", "--paths"},
    "table": MARKET_FLAGS - {"--strike"}
    | {"--log2N", "--half-width", "--strikes", "--n-list", "--schemes"},
    "converge": MARKET_FLAGS | {"--log2N", "--half-width", "--scheme", "--n-list"},
}
FLAG_VALUES = {
    "--style": "american", "--scheme": "explicit1", "--schemes": "explicit1",
    "--strikes": "95,105", "--n-list": "50,100,200", "--log2N": "10", "--n": "50",
    "--seed": "3", "--paths": "4", "--epsilon": "5",
}
ALL_FLAGS = set().union(*READS.values()) | {"--epsilon"}


@pytest.mark.parametrize("command", sorted(READS))
def test_command_accepts_the_flags_it_reads(command):
    argv = [command, "--config", "run.json", "--out", "out.csv"]
    for flag in sorted(READS[command]):
        argv += [flag, FLAG_VALUES.get(flag, "0.5")]
    args = build_parser().parse_args(argv)
    assert args.command == command


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in sorted(READS) for flag in sorted(ALL_FLAGS - READS[command])],
)
def test_command_rejects_every_flag_it_does_not_read(command, flag, capsys):
    # each used to be accepted and ignored: converge --schemes explicit1
    # wrote explicit2's study, table --n and price --seed changed nothing
    # (and table --strike was taken as an abbreviation of --strikes)
    with pytest.raises(SystemExit) as exc_info:
        main([command, flag, FLAG_VALUES.get(flag, "7")])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [
        line.split(" #", 1)[0]
        for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S)
        for line in block.splitlines()
        if line.startswith("convbsde ")
    ]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"market": {"strike": 100.0, "smile": 0.1}}))
    rc = main(["price", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "smile" in captured.err


def test_malformed_json_reports_position(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"strike": 100.0,}')
    rc = main(["price", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "line" in captured.err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"numerics": {"log2N": None}}, "log2N"),
        ({"numerics": {"half_width": "wide"}}, "half_width"),
        ({"numerics": {"n": None}}, "n must be a finite number"),
        ({"seed": None}, "seed"),
        ({"strikes": [None]}, "strikes"),
        ({"out": 5}, "out"),
    ],
)
def test_config_value_of_the_wrong_type_is_a_config_error(config, key, tmp_path, capsys):
    # each of these used to escape load_config as a TypeError (exit 1)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    rc = main(["table", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("config error: ")
    assert key in captured.err


def test_invalid_market_value_is_a_config_error(capsys):
    rc = main(["price", "--borrow-rate", "0.001"])  # below the lending rate
    captured = capsys.readouterr()
    assert rc == 2
    assert "config error" in captured.err


@pytest.mark.parametrize(
    "flag, field", [("--rate", "r"), ("--borrow-rate", "R"), ("--mu", "mu"), ("--div", "div")]
)
def test_non_finite_market_value_is_a_config_error(flag, field, capsys):
    rc = main(["price", "--n", "20", "--log2N", "8", flag, "nan"])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"{field} must be finite" in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_value_error_inside_solve_exits_with_numerical_abort(capsys, monkeypatch):
    # a finite but absurd drift overflows the closed-form adjustment in
    # the first backward step; that is a numerical abort, not a config
    # error, and the message names the step.  The coverage check refuses
    # this drift before any solve, so it is switched off to reach the step.
    argv = ["price", "--n", "50", "--log2N", "8", "--mu", "1e307"]
    assert main(argv) == 3
    assert "drift |a|*T = 1e+307" in capsys.readouterr().err
    monkeypatch.setattr(cli_module, "check_domain_coverage", lambda market, half_width: None)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert "solve aborted at step 49: non-finite adjustment value" in captured.err


def test_unresolvable_kernel_exits_with_numerical_abort(capsys):
    # far too coarse a space grid for this time step: the convolution
    # multiplier cannot be sampled faithfully and the run must stop
    # with the dedicated exit code instead of returning numbers
    rc = main(["price", "--log2N", "6", "--n", "1000"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "numerical abort" in captured.err


def test_price_keeps_only_the_start_row():
    # a full American surface at n=400, N=4096 would hold 39 MB
    argv = ["price", "--n", "400", "--log2N", "12", "--style", "american", "--div", "0.035"]
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 2 * 2**20


def test_oversized_step_record_is_a_config_error(capsys):
    # 10**8 steps of StepDiagnostics would take 4 GB: the solve is refused
    # before anything of length n is allocated
    tracemalloc.start()
    try:
        rc = main(["price", "--n", "100000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("config error: a solve at n=100000000, log2N=12 ")
    assert f"step record {40 * 10**8} bytes" in err


@pytest.mark.parametrize(
    "flags, bound",
    [
        (["--n", "10", "--log2N", "8", "--mu", "3"], "C <= S0*exp(-div*T) = 100 "),
    ],
)
def test_price_outside_no_arbitrage_bounds_is_a_numerical_abort(flags, bound, capsys):
    # at mu = 3 the driver's -(mu - r)/sigma*z term is far too stiff for
    # ten steps: the solve ends at a price of -42.27
    rc = main(["price", *flags])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert bound in captured.err
    assert "--half-width" in captured.err


@pytest.mark.parametrize(
    "flags, breach",
    [
        # ten steps are too coarse for a call struck at 20: the time-stepping
        # error lifts the delta of this deep in-the-money call above 1
        (["--strike", "20", "--n", "10"], "delta 1.0049 is outside the no-arbitrage "
         "bounds 0 <= delta <= exp(-div*T) = 1 "),
        (["--strike", "20", "--n", "10", "--style", "american"], "delta 1.0049 is outside "
         "the no-arbitrage bounds 0 <= delta <= 1 = 1 "),
        # the driver's -(mu - r)/sigma*z term is stiff at mu = 2: fifty
        # steps push the delta far below 0
        (["--mu", "2", "--strike", "150", "--n", "50"], "delta -4.63781 is outside the "
         "no-arbitrage bounds 0 <= delta <= exp(-div*T) = 1 "),
    ],
    ids=["european", "american", "lower"],
)
def test_delta_outside_no_arbitrage_bounds_is_a_numerical_abort(flags, breach, capsys):
    # the half-width 5 covers these laws: only the delta shows the error
    rc = main(["price", *flags])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert breach in captured.err
    assert "--half-width" in captured.err


@pytest.mark.parametrize(
    "flags, drift, rate, narrowest",
    [
        # the driver prices under the law that drifts at r - div - sigma^2/2:
        # this printed 37.5144 with exit 0 against Black-Scholes 39.347
        (["--rate", "0.5", "--borrow-rate", "0.5", "--sigma", "0.05", "--half-width", "0.3"],
         "0.49875", "r", "0.74875"),
        # and at R - div - sigma^2/2 where the seller borrows: this printed
        # 44.0190 with exit 0, against 45.1286 at half-widths 0.75 to 1
        (["--rate", "0.01", "--borrow-rate", "0.6", "--sigma", "0.05", "--half-width", "0.45"],
         "0.59875", "R", "0.84875"),
        # mu = sigma^2/2 + div makes the stock's log-price drift 0; only the
        # delta bound used to stop these two (delta 1.01741 and -0.151052)
        (["--rate", "0.5", "--borrow-rate", "0.5", "--mu", "0.00125", "--sigma", "0.05",
          "--half-width", "0.26"],
         "0.49875", "r", "0.74875"),
        (["--div", "0.5", "--mu", "0.50125", "--sigma", "0.05", "--half-width", "0.26"],
         "0.49125", "r", "0.74125"),
    ],
    ids=["lending", "borrowing", "rate", "div"],
)
def test_pricing_law_drift_that_leaves_the_domain_is_a_numerical_abort(
    flags, drift, rate, narrowest, capsys
):
    rc = main(["price", *flags])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert f"the drift |a|*T = {drift} (a = {rate} - div - sigma^2/2)" in captured.err
    assert f"use --half-width {narrowest} or more" in captured.err
    assert "delta" not in captured.err
    assert main(["price", *flags, "--half-width", narrowest]) == 0


def test_overflowing_dampening_aborts_without_a_runtime_warning(capsys):
    # a half-width of 0.01 fits alpha = -234 three steps in; exp(-alpha*x)
    # used to overflow with RuntimeWarnings before kappa was found non-finite.
    # The drift 0.05 carries the law five half-widths off such a grid, so
    # the command now refuses it before the solve, and the solve runs here
    # from the library.
    flags = ["--sigma", "0.001", "--n", "5", "--half-width", "0.01"]
    assert main(["price", *flags]) == 3
    assert "the drift |a|*T = 0.0499995" in capsys.readouterr().err
    spec = build_pricing_problem(MarketParams(sigma=0.001), 5, EXPLICIT_II)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolveAborted) as info:
            solve(spec, build_grid(spec.x_init, 0.01, 12))
    message = str(info.value)
    assert "solve aborted at step 3: dampening alpha = -233.95 takes exp(-alpha*x)" in message
    assert "at the domain end x = 4.61517" in message


@pytest.mark.parametrize(
    "flags, ratio",
    [
        (["--sigma", "1.5"], "3.33"),
        (["--sigma", "2.0"], "2.5"),
        (["--sigma", "2.0", "--style", "american"], "2.5"),
        (["--sigma", "0.5", "--maturity", "16"], "2.5"),
    ],
)
def test_price_on_too_narrow_a_domain_is_a_numerical_abort(flags, ratio, capsys):
    # half-width 5 truncates these increment laws; sigma = 1.5 used to
    # print 57.53 against Black-Scholes 54.90 with exit 0, inside the
    # no-arbitrage bounds.  The check runs before any solve.
    rc = main(["price", "--n", "50", "--log2N", "8", *flags])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert f"--half-width 5 is {ratio} times sigma*sqrt(T)" in captured.err


@pytest.mark.parametrize(
    "flags, half_width",
    [
        (["--sigma", "1", "--log2N", "14", "--n", "200", "--half-width", "20"], "20"),
        (["--sigma", "1", "--log2N", "14", "--n", "200", "--half-width", "25"], "25"),
        (["--log2N", "10", "--half-width", "700"], "700"),
    ],
)
def test_half_width_beyond_the_accuracy_limit_is_a_numerical_abort(flags, half_width, capsys):
    # half-width 20 printed 38.5992 and 25 printed 37.2654 against
    # Black-Scholes 38.6012, both with exit 0; 700 and 1e101 overflowed
    # inside the solve
    rc = main(["price", "--n", "50", *flags])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert f"--half-width {half_width} is above 14.5" in captured.err
    assert "use --half-width 14.5 or less" in captured.err


@pytest.mark.parametrize(
    "flags, spread, limit",
    [
        (["--sigma", "3"], "3", "above 14.5, the widest"),
        (["--sigma", "3", "--half-width", "15"], "3", "above 14.5, the widest"),
        (["--n", "50", "--log2N", "8", "--sigma", "1e200"], "1e+200", "above 14.5, the widest"),
        (
            ["--n", "50", "--log2N", "8", "--sigma", "1e100", "--half-width", "1e101"],
            "1e+100",
            "above 14.5, the widest",
        ),
        (
            ["--n", "50", "--log2N", "8", "--spot", "1e295", "--sigma", "0.6"],
            "0.6",
            "above 0.737398, the room float64 leaves below log price 680",
        ),
    ],
)
def test_market_that_no_half_width_serves_is_one_numerical_abort(flags, spread, limit, capsys):
    # sigma = 3 needs a half-width of 15 and float64 keeps 14.5: the
    # default half-width used to say "use --half-width 15 or more" and
    # 15 then said "14.5 or less".  Both now fail with one message.
    rc = main(["price", *flags])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert f"sigma*sqrt(T) = {spread} needs a log-price half-width" in captured.err
    assert limit in captured.err
    assert "no half-width serves this market" in captured.err
    assert "use --half-width" not in captured.err


def test_widest_accurate_half_width_passes_the_domain_check(capsys):
    market = MarketParams(sigma=1.0)
    check_domain_coverage(market, MAX_HALF_WIDTH)
    with pytest.raises(DomainCoverageBreach, match="use --half-width 14.5 or less"):
        check_domain_coverage(market, np.nextafter(MAX_HALF_WIDTH, np.inf))
    rc = main(["price", "--sigma", "1", "--log2N", "12", "--n", "200", "--half-width", "14.5"])
    assert rc == 0
    price = float(_parse_kv(capsys.readouterr().out.splitlines()[0])["price"])
    assert price == pytest.approx(38.6012, abs=1.5e-3)


def test_half_width_beyond_float64_room_is_a_numerical_abort(capsys):
    # at a huge spot the top node leaves float64 room before the
    # half-width reaches the accuracy limit
    rc = main(["price", "--n", "50", "--log2N", "10", "--spot", "1e290", "--half-width", "14"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "top grid node at log price 681.74968" in captured.err
    assert "use --half-width 12.25 or less" in captured.err


def test_widest_suggested_half_width_passes_the_domain_check():
    # ln(1e290) + 12.25 is just below MAX_LOG_PRICE, 12.251 just above
    market = MarketParams(S0=1e290)
    check_domain_coverage(market, 12.25)
    with pytest.raises(DomainCoverageBreach, match="use --half-width 12.25 or less"):
        check_domain_coverage(market, 12.251)


def test_drift_that_leaves_the_domain_is_a_numerical_abort(capsys):
    # five standard deviations fit, but the drifts carry the law off the
    # grid: the stock's |a|*T = 0.45125, and the pricing law's at the
    # rate, 0.49125, binds; only the delta bound used to catch it
    rc = main(["price", "--div", "0.5", "--sigma", "0.05", "--half-width", "0.25"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "the drift |a|*T = 0.49125 (a = r - div - sigma^2/2)" in captured.err
    assert "use --half-width 0.74125 or more" in captured.err
    assert "delta" not in captured.err
    assert main(["price", "--div", "0.5", "--sigma", "0.05", "--half-width", "0.74125"]) == 0


def test_widening_the_domain_passes_the_coverage_check(capsys):
    # sigma = 1.5 needs 5*1.5 plus the drift |0.01 - 1.125| = 1.115 of the
    # pricing law (the stock's is |0.05 - 1.125| = 1.075)
    rc = main(["price", "--n", "50", "--log2N", "8", "--sigma", "1.5", "--half-width", "8.615"])
    assert rc == 0
    price = float(_parse_kv(capsys.readouterr().out.splitlines()[0])["price"])
    ref = black_scholes_call(100.0, 100.0, 0.01, 0.0, 1.5, 1.0).price
    assert price == pytest.approx(ref, rel=2e-3)


@given(
    S0=st.floats(0.5, 2000.0),
    K=st.floats(0.5, 2000.0),
    r=st.floats(-0.05, 0.2),
    spread=st.floats(0.0, 0.1),
    mu=st.floats(-0.5, 0.5),
    div=st.floats(0.0, 0.3),
    sigma=st.floats(0.01, 3.0),
    T=st.floats(0.01, 5.0),
    style=st.sampled_from(STYLES),
    half_width=st.floats(0.5, 16.0),
    log2N=st.integers(8, 10),
    n=st.integers(10, 200),
)
@settings(max_examples=25, deadline=None)
def test_every_market_prices_in_bounds_or_fails_with_a_message(
    S0, K, r, spread, mu, div, sigma, T, style, half_width, log2N, n
):
    # ends with exit 0 and a price and delta inside the static bounds,
    # or exit 2 or 3 and a message; an uncaught exception fails the test
    argv = ["price", "--n", str(n), "--log2N", str(log2N), "--style", style]
    for flag, value in (
        ("--spot", S0), ("--strike", K), ("--rate", r), ("--borrow-rate", r + spread),
        ("--mu", mu), ("--div", div), ("--sigma", sigma), ("--maturity", T),
        ("--half-width", half_width),
    ):
        argv.append(f"{flag}={value!r}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "price.csv"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([*argv, "--out", str(out)])
        rows = _read_csv(out) if rc == 0 else None
    if rc == 0:
        price, delta = float(rows[0]["price"]), float(rows[0]["delta"])
        share = np.exp(-div * T) if style == STYLE_EUROPEAN else 1.0
        slack = 1e-4 * S0
        assert np.isfinite(price)
        assert -slack <= price <= S0 * share + slack
        assert -DELTA_SLACK <= delta <= share + DELTA_SLACK
    else:
        assert rc in (2, 3)
        prefix = "config error: " if rc == 2 else "numerical abort: "
        assert stderr.getvalue().startswith(prefix)
        assert len(stderr.getvalue()) > len(prefix) + 1


def test_oversized_paths_request_is_a_config_error(capsys):
    # paths holds no surface, only its five 50 x (n+1) path arrays: 20 GB
    # here; the check fires before anything is allocated
    rc = main(["paths", "--n", "10000000", "--style", "american"])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"50 paths at n=10000000 needs {50 * (10**7 + 1) * 8 * 5} bytes" in captured.err


def test_paths_fits_a_cap_below_every_row_of_the_surface(tmp_path, monkeypatch, capsys):
    # every row of the American surface is 51 rows of 3 x 1024 doubles,
    # the path arrays 5 x 2 x 51 doubles; a cap between them used to
    # refuse paths
    argv = ["paths", "--style", "american", "--div", "0.035", "--n", "50", "--log2N", "10",
            "--paths", "2", "--out", str(tmp_path / "paths.csv")]
    surface_bytes = 51 * 1024 * 8 * 3
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", surface_bytes - 1)
    assert 5 * 2 * 51 * 8 < surface_bytes - 1
    assert main(argv) == 0
    assert len((tmp_path / "paths.csv").read_bytes().splitlines()) == 1 + 2 * 51
    monkeypatch.setattr(solver_module, "MAX_STORAGE_BYTES", 5 * 2 * 51 * 8 - 1)
    assert main(argv) == 2
    assert "2 paths at n=50 needs 4080 bytes" in capsys.readouterr().err


def test_table_sweeps_and_references(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(
        [
            "table",
            "--strikes",
            "100",
            "--n-list",
            "200,400",
            "--schemes",
            "explicit2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = _read_csv(out)
    assert [r["n"] for r in rows] == ["200", "400"]
    assert {r["scheme"] for r in rows} == {"explicit2"}
    ref = black_scholes_call(100.0, 100.0, 0.01, 0.0, 0.2, 1.0)
    for row in rows:
        assert float(row["ref_price"]) == pytest.approx(ref.price, rel=1e-9)
        assert float(row["rel_err_pct"]) <= 0.1
    # finer mesh must not be worse on this smooth case
    assert float(rows[1]["rel_err_pct"]) <= float(rows[0]["rel_err_pct"])
    captured = capsys.readouterr()
    assert "scheme=explicit2 K=100 n=200" in captured.out


def test_table_uses_tree_reference_when_rates_differ(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(
        [
            "table",
            "--borrow-rate",
            "0.03",
            "--style",
            "american",
            "--strikes",
            "100",
            "--n-list",
            "200",
            "--schemes",
            "explicit2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    # the reference column now comes from the tree oracle, close to but
    # not equal to the frictionless closed form (tree noise at n=200
    # is a few thousandths)
    assert float(rows[0]["ref_price"]) == pytest.approx(9.414, abs=2e-2)
    assert float(rows[0]["rel_err_pct"]) <= 0.1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--strikes", "20", "--n-list", "10"],
         "delta 1.0049 is outside the no-arbitrage bounds"),
        (["--sigma", "2.0", "--strikes", "100", "--n-list", "50"],
         "--half-width 5 is 2.5 times sigma*sqrt(T)"),
    ],
)
def test_table_marks_a_numerical_abort_as_a_failed_cell(flags, message, tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["table", *flags, "--log2N", "8", "--schemes", "explicit2", "--out", str(out)])
    # the CSV is still written, and the failed cell sets exit code 3
    assert rc == 3
    (row,) = _read_csv(out)
    assert np.isnan(float(row["price"]))
    err = capsys.readouterr().err
    assert message in err
    assert err.endswith("numerical abort: 1 of 1 table cells failed\n")


def test_error_surface_writes_node_errors(tmp_path, capsys):
    out = tmp_path / "es.csv"
    rc = main(["error-surface", "--n", "200", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 2**12
    assert list(rows[0].keys()) == [
        "x",
        "abs_err_price",
        "abs_err_delta",
        "log10_abs_err_price",
        "log10_abs_err_delta",
    ]
    errs = np.array([float(r["abs_err_price"]) for r in rows])
    mid = len(rows) // 2
    assert errs[mid] <= 1e-2  # at-the-money node is accurate
    assert np.max(errs) >= 10.0 * errs[mid]  # edges are not
    # the headline reports nodes N/4..3N/4, not the boundary error
    interior = errs[len(rows) // 4 : 3 * len(rows) // 4]
    out = capsys.readouterr().out
    headline = re.search(
        r"interior \(nodes 1024\.\.3071\) max error (\S+) median (\S+)\n", out
    )
    assert float(headline[1]) == pytest.approx(interior.max(), rel=1e-3)
    assert float(headline[2]) == pytest.approx(np.median(interior), rel=1e-3)
    worst = int(np.argmax(errs))
    overall = re.search(r"overall max error (\S+) at x=(\S+)\n", out)
    assert float(overall[1]) == pytest.approx(errs[worst], rel=1e-3)
    assert float(overall[2]) == pytest.approx(float(rows[worst]["x"]), abs=1e-4)
    assert "wrote" in out


def test_error_surface_requires_closed_form(capsys):
    rc = main(["error-surface", "--borrow-rate", "0.03", "--n", "100"])
    assert rc == 2
    assert "closed-form" in capsys.readouterr().err


def test_converge_reports_first_order(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    rc = main(["converge", "--n-list", "125,250,500,1000", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert [r["n"] for r in rows] == ["125", "250", "500", "1000"]
    errs = [float(r["abs_err"]) for r in rows]
    assert errs == sorted(errs, reverse=True)  # decreasing error
    assert rows[0]["estimated_order"] == "nan"
    captured = capsys.readouterr()
    match = re.search(r"least-squares order: (-?\d+\.\d+)", captured.out)
    assert match is not None
    assert 0.5 <= float(match.group(1)) <= 1.5


def test_converge_needs_three_meshes(capsys):
    rc = main(["converge", "--n-list", "100,200"])
    assert rc == 2
    assert "at least 3" in capsys.readouterr().err


def test_converge_rejects_repeated_mesh_sizes(capsys):
    # a repeated n made the successive ratio 0/0 and printed nan
    rc = main(["converge", "--n-list", "50,50,100", "--log2N", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "distinct mesh sizes; got [50, 50, 100]" in captured.err
    assert captured.out == ""


def test_paths_csv_is_deterministic_and_unreflected_for_default_market(
    tmp_path, capsys
):
    out_a = tmp_path / "paths_a.csv"
    out_b = tmp_path / "paths_b.csv"
    args = ["paths", "--n", "100", "--paths", "5", "--seed", "7"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = _read_csv(out_a)
    assert len(rows) == 5 * 101
    assert list(rows[0].keys()) == ["path_id", "t", "X", "S", "Y", "Z", "A"]
    assert {r["path_id"] for r in rows} == {"0", "1", "2", "3", "4"}
    # no barrier in the default market: the reflection column is zero
    assert all(float(r["A"]) == 0.0 for r in rows)
    # S is the exponential of X on every row
    sample = rows[42]
    assert float(sample["S"]) == pytest.approx(np.exp(float(sample["X"])), rel=1e-12)
    captured = capsys.readouterr()
    assert "numpy-pcg64" in captured.out


def test_paths_csv_holds_the_simulated_arrays_exactly(tmp_path):
    out = tmp_path / "paths.csv"
    args = ["--style", "american", "--div", "0.035", "--n", "50", "--log2N", "10"]
    assert main(["paths", *args, "--paths", "3", "--seed", "5", "--out", str(out)]) == 0
    market = MarketParams(style=STYLE_AMERICAN, div=0.035)
    spec = build_pricing_problem(market, 50, EXPLICIT_II)
    paths = simulate_paths(spec, build_grid(spec.x_init, 5.0, 10), 3, 5)
    assert np.any(paths.a[:, -1] > 0.0)
    rows = _read_csv(out)
    # grouped by path id in order, each path's rows in time order
    assert [int(r["path_id"]) for r in rows] == [j for j in range(3) for _ in range(51)]
    for column, values in (("t", np.tile(paths.times, 3)), ("X", paths.x), ("Y", paths.y),
                           ("Z", paths.z), ("A", paths.a)):
        assert [float(r[column]) for r in rows] == values.ravel().tolist()


def _csv_writer_bytes(rows) -> bytes:
    """The bytes csv.writer's default dialect writes for rows."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode()


@pytest.mark.parametrize(
    "flags, count, seed",
    [
        (["--style", "american", "--div", "0.035", "--borrow-rate", "0.03"], 4, 7),
        (["--style", "american", "--div", "0.035", "--borrow-rate", "0.03"], 4, 3),
        (["--style", "american", "--div", "0.035", "--borrow-rate", "0.03"], 1, 7),
        ([], 2, 7),
    ],
    ids=["american-seed7", "american-seed3", "one-path", "european"],
)
def test_paths_csv_is_what_csv_writer_writes(flags, count, seed, tmp_path):
    out = tmp_path / "paths.csv"
    argv = ["paths", *flags, "--n", "50", "--log2N", "10", "--paths", str(count),
            "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    config = load_config(build_parser().parse_args(argv))
    spec = build_pricing_problem(config.market, 50, EXPLICIT_II)
    paths = simulate_paths(spec, build_grid(spec.x_init, 5.0, 10), count, seed)
    assert np.any(paths.a[:, -1] > 0.0) == bool(flags)

    def rows():
        # the rows csv.writer used to write, one path at a time
        yield ["path_id", "t", "X", "S", "Y", "Z", "A"]
        for index, x in enumerate(paths.x):
            columns = (paths.times, x, np.exp(x), paths.y[index], paths.z[index], paths.a[index])
            for row in np.column_stack(columns).tolist():
                yield [index, *row]

    assert out.read_bytes() == _csv_writer_bytes(rows())


@pytest.mark.parametrize(
    "argv",
    [
        ["price", "--n", "50", "--log2N", "10", "--style", "american", "--div", "0.035"],
        ["table", "--log2N", "10", "--strikes", "95,105", "--n-list", "40,80",
         "--borrow-rate", "0.03"],
        # a failed cell writes nan
        ["table", "--log2N", "8", "--strikes", "100", "--n-list", "50", "--schemes", "explicit2"],
        ["converge", "--log2N", "10", "--n-list", "50,100,200"],
        ["error-surface", "--n", "50", "--log2N", "10"],
    ],
    ids=["price", "table", "table-failed", "converge", "error-surface"],
)
def test_command_csv_is_what_csv_writer_writes(argv, tmp_path, monkeypatch):
    # every record the command formats, header first, is also handed to
    # csv.writer; the file must hold the same bytes (price's runtime_ms
    # is the same value in both)
    records = []

    def recording_line(fields):
        records.append(list(fields))
        return csv_line(fields)

    csv_line = cli_module._csv_line
    monkeypatch.setattr(cli_module, "_csv_line", recording_line)
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) in (0, 3)
    assert len(records) == len(out.read_bytes().splitlines()) > 1
    assert out.read_bytes() == _csv_writer_bytes(records)
    if argv[-1] == "explicit2":
        assert np.isnan(records[1][3])


def test_paths_differ_across_seeds(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["paths", "--n", "50", "--paths", "2", "--seed", "1", "--out", str(out_a)]) == 0
    assert main(["paths", "--n", "50", "--paths", "2", "--seed", "2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["tabulate"])


def test_scheme_name_validation(capsys):
    # rejected by the parser itself, before any solve is attempted
    with pytest.raises(SystemExit) as exc_info:
        main(["price", "--scheme", "implicit", "--n", "50"])
    assert exc_info.value.code == 2
