"""End-to-end tests of the command line interface.

Commands run in-process through main() with temporary output paths, so
exit codes, stdout formatting and CSV artifacts are all checked without
spawning subprocesses.
"""

import csv
import json
import re
import tracemalloc

import numpy as np
import pytest

from convbsde import EXPLICIT_I, black_scholes_call
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
    from_file = load_config(parser.parse_args(["table", "--config", str(config)]))
    from_flags = load_config(
        parser.parse_args(
            ["table", "--seed", "7", "--paths", "3", "--out", "sweep.csv",
             "--strikes", "95,105", "--n-list", "50,100,200", "--schemes", "explicit1"]
        )
    )
    assert from_file == from_flags
    assert (from_file.seed, from_file.path_count, from_file.out) == (7, 3, "sweep.csv")
    assert from_file.strikes == (95.0, 105.0)
    assert from_file.n_list == (50, 100, 200)
    assert from_file.schemes == (EXPLICIT_I,)
    # without either form the defaults are RunConfig's
    default = load_config(parser.parse_args(["table"]))
    assert default == RunConfig(market=default.market, numerics=default.numerics)


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
def test_value_error_inside_solve_exits_with_numerical_abort(capsys):
    # a finite but absurd vol overflows the closed-form adjustment in
    # the first backward step; that is a numerical abort, not a config
    # error, and the message names the step
    rc = main(["price", "--n", "50", "--log2N", "8", "--sigma", "1e200"])
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "flags, bound",
    [
        (["--n", "50", "--log2N", "8", "--div", "1e300"], "C <= S0*exp(-div*T) = 0 "),
        (["--n", "200", "--sigma", "2.0"], "C <= S0*exp(-div*T) = 100 "),
        (["--n", "200", "--sigma", "2.0", "--style", "american"], "C <= S0 = 100 "),
    ],
)
def test_price_outside_no_arbitrage_bounds_is_a_numerical_abort(flags, bound, capsys):
    # a drift that carries the kernel off the grid, or a vol too wide
    # for half-width 5, used to print a price far above the spot
    rc = main(["price", *flags])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert bound in captured.err
    assert "--half-width" in captured.err


def test_oversized_paths_request_is_a_config_error(capsys):
    # the full American surface would need 0.98 TB; the check fires
    # before anything is allocated
    rc = main(["paths", "--n", "10000000", "--style", "american"])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"needs {(10**7 + 1) * 4097 * 24} bytes" in captured.err
    assert "n=10000000, log2N=12" in captured.err


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


def test_table_marks_a_bound_breach_as_a_failed_cell(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(
        ["table", "--sigma", "2.0", "--strikes", "100", "--n-list", "200",
         "--schemes", "explicit2", "--out", str(out)]
    )
    assert rc == 0
    (row,) = _read_csv(out)
    assert np.isnan(float(row["price"]))
    assert "outside the no-arbitrage bounds" in capsys.readouterr().err


def test_error_surface_writes_node_errors(tmp_path, capsys):
    out = tmp_path / "es.csv"
    rc = main(["error-surface", "--n", "200", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 2**12 + 1
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
    assert "wrote" in capsys.readouterr().out


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
