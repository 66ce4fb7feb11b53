"""Command line surface: exit codes, formats, round trips."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import signalbox as sb
from signalbox import cli
from signalbox.cli import DEMO_NAMES, run


def write_table(tmp_path, corr, name="table.json"):
    path = tmp_path / name
    sb.save_correlation(corr, path)
    return str(path)


def test_analyze_file(tmp_path, capsys):
    path = write_table(tmp_path, sb.pr_box())
    assert run(["analyze", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == pytest.approx(4.0)
    assert payload["classical"] is False
    assert payload["measure"] == "mutual_info"


def test_analyze_measure_flag(tmp_path, capsys):
    path = write_table(tmp_path, sb.unbalanced_pr(0.0))
    assert run(["analyze", path, "--measure", "delta"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measure"] == "delta"
    assert payload["eta"] == pytest.approx(0.0, abs=1e-12)
    assert payload["classical"] is True


def test_analyze_in_flag_and_conflict(tmp_path, capsys):
    path = write_table(tmp_path, sb.pr_box())
    assert run(["analyze", "--in", path]) == 0
    capsys.readouterr()
    assert run(["analyze", path, "--in", path]) == 1
    assert "not both" in capsys.readouterr().err


def test_analyze_stdin(tmp_path, capsys, monkeypatch):
    text = json.dumps(sb.to_json_dict(sb.pr_box()))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["analyze"]) == 0
    assert json.loads(capsys.readouterr().out)["lambda"] == pytest.approx(4.0)


def test_analyze_missing_file(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "nope.json")]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_analyze_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert run(["analyze", str(path)]) == 2


def test_analyze_invalid_table(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"p": [[0.5, 0.5]]}))
    assert run(["analyze", str(path)]) == 2


def test_nan_table_is_invalid_input(tmp_path, capsys):
    p = np.full((2, 2, 2, 2), 0.25)
    p[1, 0, 1, 0] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"p": p.tolist()}))
    for argv in (["analyze", str(path)], ["decompose", str(path)]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NaN" in captured.err


def test_analyze_marginal_within_normalization_slop(tmp_path, capsys):
    """A bob marginal 5e-10 past 1 passes validation, so it classifies."""
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 0] = [[0.50000000025, 0.0], [0.50000000025, 0.0]]
    p[1, 0] = [[0.3, 0.2], [0.3, 0.2]]
    trimmed = p.copy()
    trimmed[0, 0] = [[0.5, 0.0], [0.5, 0.0]]
    payloads = []
    for name, table in (("slop.json", p), ("trimmed.json", trimmed)):
        assert run(["analyze", write_table(tmp_path, sb.Correlation(table), name)]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    got, want = payloads
    assert got.keys() == want.keys()
    for key, expected in want.items():
        if isinstance(expected, float):
            assert got[key] == pytest.approx(expected, abs=1e-9), key
        else:
            assert got[key] == expected, key


def test_analyze_out_file(tmp_path, capsys):
    path = write_table(tmp_path, sb.tsirelson_box())
    out = tmp_path / "report.json"
    assert run(["analyze", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["c_lambda"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)


def test_analyze_unwritable_out(tmp_path, capsys):
    path = write_table(tmp_path, sb.pr_box())
    assert run(["analyze", path, "--out", str(tmp_path)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_decompose_outputs_weights(tmp_path, capsys):
    path = write_table(tmp_path, sb.pr_box())
    assert run(["decompose", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cost"] == pytest.approx(1.0, abs=1e-9)
    assert payload["residual"] <= 1e-9
    total = sum(payload["weights"].values())
    assert total == pytest.approx(1.0, abs=1e-6)


def test_decompose_infeasible_table(tmp_path, capsys):
    # the synthetic signal table sits outside the strategy hull
    path = write_table(tmp_path, sb.tsirelson_signal_box())
    assert run(["decompose", path]) == 3
    assert "signalbox:" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, code",
    [
        ("pr_box", 0),
        ("unbalanced_pr_0.3", 0),
        ("sub_cost", 0),
        ("super_cost", 0),
        ("qubit_infeasible", 3),
    ],
)
def test_decompose_golden_bytes(capsys, name, code):
    """The exact bytes decompose prints: 12-digit JSON, or the exit-3 message.

    Inputs and outputs under tests/golden are frozen; the sub- and
    super-cost tables are conftest mixtures and the infeasible one is a
    sequential qubit table outside the catalog's hull.
    """
    assert run(["decompose", str(GOLDEN / f"decompose_{name}.json")]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert (out.encode(), err) == ((GOLDEN / f"decompose_{name}.stdout").read_bytes(), "")
    else:
        assert (out, err.encode()) == ("", (GOLDEN / f"decompose_{name}.stderr").read_bytes())


@pytest.mark.parametrize(
    "name, argv",
    [
        ("sweep_default", ["sweep"]),
        ("sweep_0.95_1.0", ["sweep", "--theta-min", "0.95", "--theta-max", "1.0"]),
        ("demo_sigma", ["demo", "sigma"]),
        ("demo_tsirelson", ["demo", "tsirelson"]),
        ("demo_pr_box", ["demo", "pr-box"]),
        ("demo_d01", ["demo", "d01"]),
        ("demo_tsirelson_signal", ["demo", "tsirelson-signal"]),
        ("demo_qp_0.3", ["demo", "qp", "--p", "0.3"]),
        ("analyze_pr_box", ["analyze", str(GOLDEN / "decompose_pr_box.json")]),
    ]
    + [
        (
            f"analyze_{table}_{measure}",
            ["analyze", "--measure", measure, str(GOLDEN / f"decompose_{table}.json")],
        )
        for table in ("sub_cost", "super_cost", "unbalanced_pr_0.3")
        for measure in ("mutual_info", "delta")
    ],
)
def test_sweep_and_demo_golden_bytes(capsys, name, argv):
    """The exact bytes of the default sweep, a window without a crossover,
    every demo, and analyze on the decompose inputs under both measures,
    frozen under tests/golden."""
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert (out.encode(), err) == ((GOLDEN / f"{name}.stdout").read_bytes(), "")


def test_decompose_tol_flag(tmp_path, capsys):
    path = write_table(tmp_path, sb.pr_box())
    assert run(["decompose", path, "--tol", "-1"]) == 3
    assert "residual" in capsys.readouterr().err


def test_decompose_rejects_non_finite_tol(tmp_path, capsys):
    """A NaN or infinite tolerance would turn the residual check off."""
    path = write_table(tmp_path, sb.pr_box())
    for flag in ("--tol=nan", "--tol=inf", "--tol=-inf", "--tol=1e400"):
        assert run(["decompose", path, flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "signalbox: decompose needs a finite --tol\n"


def test_non_finite_json_output_is_a_computation_failure(tmp_path, capsys, monkeypatch):
    """NaN never prints as JSON: the command exits 3 with empty stdout."""
    path = write_table(tmp_path, sb.pr_box())
    monkeypatch.setattr(
        "signalbox.cli.report_json_dict", lambda report: {"lambda": math.nan}
    )
    assert run(["analyze", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("signalbox: output has a non-finite number")
    assert captured.err.count("\n") == 1
    monkeypatch.setattr(
        "signalbox.cli.decomposition_json_dict", lambda dec: {"cost": math.inf}
    )
    assert run(["decompose", path]) == 3
    assert capsys.readouterr().out == ""


def test_sweep_default_window(capsys):
    assert run(["sweep"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "theta,lambda,lambda_norm,S_restricted,c_lambda,chi,classical"
    assert lines[-1].startswith("# crossover=")
    assert len(lines) == 63  # header + 61 rows + trailer
    crossover = float(lines[-1].split("=", 1)[1])
    assert crossover == pytest.approx(1.07010498046875, abs=2e-4)


def test_sweep_is_deterministic(capsys):
    assert run(["sweep"]) == 0
    first = capsys.readouterr().out
    assert run(["sweep"]) == 0
    assert capsys.readouterr().out == first


def test_sweep_window_without_crossover(capsys):
    assert run(["sweep", "--theta-min", "0.95", "--theta-max", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "# crossover=" not in out
    assert len(out.strip().split("\n")) == 62


def test_sweep_from_zero_gap_endpoint_reports_the_crossover(capsys):
    """A window starting where the gap rounds to 0.0 still reports 1.0701."""
    assert run(["sweep", "--theta-min", "1e-9", "--theta-max", "1.2"]) == 0
    trailer = capsys.readouterr().out.strip().split("\n")[-1]
    assert trailer.startswith("# crossover=")
    assert float(trailer.split("=", 1)[1]) == pytest.approx(1.0701, abs=2e-4)


def test_sweep_bad_ranges(capsys, monkeypatch):
    assert run(["sweep", "--steps", "1"]) == 1
    assert run(["sweep", "--theta-min", "1.2", "--theta-max", "0.9"]) == 1
    assert run(["sweep", "--theta-min", "1.0", "--theta-max", "1.0"]) == 1
    capsys.readouterr()

    def no_grid(*args, **kwargs):
        raise AssertionError("the step grid was allocated")

    monkeypatch.setattr(np, "linspace", no_grid)
    assert run(["sweep", "--steps", str(10**12)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 100000" in captured.err


def test_sweep_geometry_domain_error(capsys):
    # theta = 0 is outside the geometry's domain, surfacing as a compute error
    assert run(["sweep", "--theta-min", "0.0", "--theta-max", "0.5"]) == 3
    assert "signalbox:" in capsys.readouterr().err


def test_sweep_out_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--steps", "5", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("theta,")
    assert capsys.readouterr().out == ""


def test_demo_names_all_run(tmp_path, capsys):
    for name in DEMO_NAMES:
        assert run(["demo", name]) == 0, name
        payload = json.loads(capsys.readouterr().out)
        assert "table" in payload
    assert set(DEMO_NAMES) == {
        "pr-box",
        "d01",
        "tsirelson",
        "tsirelson-signal",
        "sigma",
        "qp",
    }


# Each subcommand's arguments as (option_strings, dest, default, choices,
# help), in declaration order, frozen from the parser as it was first
# written; --help prints them in this order.
_ARGUMENTS = {
    "analyze": [
        ([], "input", None, None, "correlation JSON file"),
        (["--in"], "input_path", None, None, "correlation JSON file"),
        (["--out"], "output_path", None, None, "write the report here"),
        (["--measure"], "measure", "mutual_info", ("mutual_info", "delta"),
         "signal measure the verdict uses"),
    ],
    "decompose": [
        ([], "input", None, None, "correlation JSON file"),
        (["--in"], "input_path", None, None, "correlation JSON file"),
        (["--out"], "output_path", None, None, "write the weights here"),
        (["--tol"], "tol", 1e-09, None, "largest acceptable reconstruction residual"),
    ],
    "sweep": [
        (["--theta-min"], "theta_min", 0.9, None, None),
        (["--theta-max"], "theta_max", 1.2, None, None),
        (["--steps"], "steps", 61, None, None),
        (["--out"], "output_path", None, None, "write the CSV here"),
    ],
    "demo": [
        ([], "name", None, ("pr-box", "d01", "tsirelson", "tsirelson-signal", "sigma", "qp"),
         None),
        (["--p"], "p", 0.25, None, "mixing weight for the qp demo"),
        (["--out"], "output_path", None, None, "write the demo output here"),
    ],
}


def test_subcommand_arguments_are_frozen():
    """Names, help lines and every argument of each subcommand, in order;
    each subcommand runs the handler bound where it is built."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [(c.dest, c.help) for c in commands._choices_actions] == [
        ("analyze", "classify a correlation table from JSON"),
        ("decompose", "minimal-communication mixture over the strategy catalog"),
        ("sweep", "angle sweep as CSV"),
        ("demo", "print a named example table"),
    ]
    assert list(commands.choices) == list(_ARGUMENTS)
    for name, sub in commands.choices.items():
        got = [
            (a.option_strings, a.dest, a.default, a.choices, a.help)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert got == _ARGUMENTS[name], name
        assert sub.get_default("handler") is getattr(cli, f"cmd_{name}")
    assert DEMO_NAMES == _ARGUMENTS["demo"][0][3]


def test_demo_rejects_unknown_name(capsys):
    assert run(["demo", "unheard-of"]) == 1


def test_demo_sigma_payload(capsys):
    assert run(["demo", "sigma"]) == 0
    payload = json.loads(capsys.readouterr().out)
    mu = math.log2(5.0) - 2.0
    assert payload["mu"] == pytest.approx(mu, abs=1e-9)
    assert payload["alpha_star"] == pytest.approx(0.6, abs=1e-3)
    assert payload["s"] == pytest.approx(0.5, abs=1e-12)
    assert payload["tau"] == pytest.approx(0.5, abs=1e-12)
    assert payload["chi"] == pytest.approx(mu, abs=1e-6)
    assert payload["bound"] == pytest.approx(2.0 * (mu + 1.0), abs=1e-9)


def test_demo_qp_payload(capsys):
    assert run(["demo", "qp", "--p", "0.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == pytest.approx(0.3)
    assert payload["s"] == pytest.approx(0.4, abs=1e-12)
    assert payload["intrinsic"] == pytest.approx(0.3, abs=1e-12)
    assert payload["tradeoff"] == pytest.approx(1.0, abs=1e-12)
    assert payload["cloning_violation"] == pytest.approx(0.6, abs=1e-12)
    assert payload["report"]["measure"] == "delta"


def test_demo_qp_above_half_drops_cloning(capsys):
    assert run(["demo", "qp", "--p", "0.75"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "cloning_violation" not in payload
    assert payload["s"] == pytest.approx(0.5, abs=1e-12)


def test_demo_round_trip_through_analyze(tmp_path, capsys):
    assert run(["demo", "pr-box"]) == 0
    payload = json.loads(capsys.readouterr().out)
    path = tmp_path / "pr.json"
    path.write_text(json.dumps(payload["table"]))
    assert run(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == pytest.approx(4.0)


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1


def test_run_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["signalbox", "demo", "pr-box"])
    assert run() == 0
    assert json.loads(capsys.readouterr().out)["report"]["lambda"] == pytest.approx(4.0)


@pytest.mark.parametrize("argv", [["sweep", "--steps", "5"], ["demo", "sigma"]])
def test_module_entry_point_matches_run(argv, capsys):
    """``python -m signalbox`` exits 0 with the bytes of an in-process ``run``."""
    assert run(argv) == 0
    want = capsys.readouterr().out.encode("utf-8")
    env = dict(os.environ)
    package_root = str(Path(sb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "signalbox", *argv], capture_output=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == want


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"\xff\xfe{}", "undecodable text"),
        (b"[" * 100000, "nested too deeply"),
        (b'{"p": [1', "invalid JSON"),
    ],
    ids=["not-utf8", "deeply-nested", "malformed"],
)
def test_undecodable_or_too_deep_input_is_invalid(tmp_path, capsys, monkeypatch, data, reason):
    """Bytes that are not text, malformed JSON or JSON past the recursion
    limit exit 2 with one line, the same from a file as from stdin."""
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    for command in ("analyze", "decompose"):
        assert run([command, str(path)]) == 2
        from_file = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert run([command]) == 2
        from_stdin = capsys.readouterr()
        for captured in (from_file, from_stdin):
            assert captured.out == ""
            assert captured.err.startswith("signalbox: invalid input: ")
            assert captured.err.count("\n") == 1
            assert reason in captured.err


@pytest.mark.parametrize(
    "leaf, shown",
    [("0.25", '"0.25"'), (True, "true"), (False, "false")],
    ids=["string", "true", "false"],
)
def test_non_number_entries_are_invalid(tmp_path, capsys, monkeypatch, leaf, shown):
    """A string or boolean table entry exits 2, from a file and from stdin,
    where numpy would read it as a number."""
    p = np.full((2, 2, 2, 2), 0.25).tolist()
    p[1][0][1][0] = leaf
    text = json.dumps({"p": p})
    path = tmp_path / "leaf.json"
    path.write_text(text)
    for command in ("analyze", "decompose"):
        assert run([command, str(path)]) == 2
        from_file = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run([command]) == 2
        from_stdin = capsys.readouterr()
        for captured in (from_file, from_stdin):
            assert captured.out == ""
            assert captured.err == (
                f"signalbox: invalid input: table entry must be a JSON number, got {shown}\n"
            )


class _UnreadableStdin(io.StringIO):
    def read(self, *args):
        raise OSError("Input/output error")


def test_unreadable_input_is_invalid(tmp_path, capsys, monkeypatch):
    """A file or stdin that cannot be read exits 2 and names what failed."""
    missing = tmp_path / "nope.json"
    monkeypatch.setattr("sys.stdin", _UnreadableStdin())
    for argv, name in ((["analyze", str(missing)], str(missing)), (["decompose"], "stdin")):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"signalbox: invalid input: cannot read {name}: ")


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    """Interleaved calls share one parser and match calls on a fresh one."""
    path = write_table(tmp_path, sb.pr_box())
    sequence = [
        ["analyze", path, "--measure", "delta"],
        ["analyze", path],
        ["analyze", "--in", path],
        ["analyze", path, "--in", path],
        ["demo", "qp", "--p", "0.7"],
        ["demo", "qp"],
        ["decompose", path, "--tol", "1e-20"],
        ["sweep", "--steps", "5"],
        ["demo", "unheard-of"],
        [],
    ]
    built = []
    parser_init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        parser_init(self, *args, **kwargs)

    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    shared = [outcome(argv) for argv in sequence]
    built_by_sequence = len(built)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [outcome(argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 1, 0, 0, 0, 0, 1, 1]
    assert json.loads(shared[1][1])["measure"] == "mutual_info"
    assert json.loads(shared[5][1])["p"] == pytest.approx(0.25)
    del built[:]
    cli.build_parser.__wrapped__()
    assert built_by_sequence == len(built)
