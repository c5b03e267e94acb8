"""End-to-end tests of the command-line interface."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ssjacobi import cli, jacobidiff, semisep
from ssjacobi.specfun import JacobiParams


def run(argv):
    return cli.main(argv)


class TestGen:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["gen", "--alpha", "4", "--beta", "2", "--n", "12",
                    "--format", "csv", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh)]
        dense = np.array(rows)
        assert dense.shape == (12, 12)
        ref = jacobidiff.build(JacobiParams(4.0, 2.0), 12, "generators").dense()
        assert np.array_equal(dense, ref)

    def test_json_output_schema(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "--n", "10", "--format", "json",
                    "--source", "generators", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert sorted(payload) == ["a", "b", "c", "d", "e", "n", "rank"]
        assert payload["n"] == 10 and payload["rank"] == 2
        loaded = semisep.from_json(out.read_text())
        ref = jacobidiff.build(JacobiParams(2.0, 2.0), 10, "generators").dense()
        assert np.abs(loaded.to_dense() - ref).max() <= 1e-15

    def test_json_requires_generator_source(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gen", "--format", "json", "--source", "quadrature_oracle",
                    "--out", str(out)]) == 2

    def test_json_above_dense_cap(self, tmp_path, capsys):
        # The JSON form is O(N): no dense matrix is formed for it.
        n = 2 * semisep.DENSE_CAP
        out = tmp_path / "g.json"
        assert run(["gen", "--n", str(n), "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert semisep.from_json(out.read_text()).n == n
        assert run(["gen", "--n", str(n), "--out", str(tmp_path / "d.csv")]) == 2
        # The dense routes refuse before they allocate their N x N arrays.
        for source in ("closed_form", "recurrence", "quadrature_oracle"):
            assert run(["gen", "--n", str(n), "--source", source,
                        "--out", str(tmp_path / "d.csv")]) == 2
        assert not (tmp_path / "d.csv").exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gen", "--n", "16", "--out", str(a)])
        run(["gen", "--n", "16", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--alpha", "0"],
            ["gen", "--beta", "-1"],
            ["gen", "--n", "0"],
        ],
    )
    def test_invalid_configuration(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err

    def test_unknown_source_is_usage_error(self, tmp_path):
        assert run(["gen", "--source", "magic",
                    "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("source", jacobidiff.SOURCES)
    def test_sources_are_the_library_route_names(self, source, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["gen", "--n", "6", "--source", source, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            dense = np.array([[float(v) for v in row] for row in csv.reader(fh)])
        ref = jacobidiff.build(JacobiParams(2.0, 2.0), 6, "generators").dense()
        assert np.abs(dense - ref).max() <= 1e-13

    @pytest.mark.parametrize("source", ["closed-form", "oracle"])
    def test_other_spellings_are_usage_errors(self, source, tmp_path, capsys):
        assert run(["gen", "--source", source, "--out", str(tmp_path / "x.csv")]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_generator_overflow_is_reported_without_traceback(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the one line is all of stderr
            code = run(["gen", "--alpha", "300", "--beta", "0.1", "--n", "16",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ValueError:") and err.count("\n") == 1

    def test_unwritable_path(self, capsys):
        assert run(["gen", "--out", "/nonexistent-dir/x.csv"]) == 1


class TestVerify:
    def test_defaults_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["alpha"] == 2.0 and report["beta"] == 2.0 and report["n"] == 32
        assert all(c["pass"] for c in report["checks"].values())
        stdout = capsys.readouterr().out
        assert "PASS route_agreement" in stdout

    def test_asymmetric_case_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--alpha", "4", "--beta", "2", "--n", "64",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "parity" not in report["checks"]
        for name in (
            "route_agreement",
            "skew_symmetry_exact",
            "skew_symmetry_quadrature",
            "rank2_structure",
            "product_rank_additivity",
            "square_negative_semidefinite",
            "rank1_product_dense_agreement",
            "boundedness_sums_dual_route",
        ):
            assert report["checks"][name]["pass"], name

    def test_boundedness_check_records_the_measured_gap(self, tmp_path, monkeypatch, capsys):
        routes = ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0 * (1 + 1e-6)))
        monkeypatch.setattr(jacobidiff, "_boundedness_routes", lambda params: routes)
        out = tmp_path / "report.json"
        assert run(["verify", "--n", "8", "--out", str(out)]) == 1
        check = json.loads(out.read_text())["checks"]["boundedness_sums_dual_route"]
        assert not check["pass"]
        assert check["max_error"] == pytest.approx(1e-6, rel=1e-5)
        assert "FAIL boundedness_sums_dual_route" in capsys.readouterr().out

    def test_against_matching_file(self, tmp_path):
        gfile = tmp_path / "g.json"
        run(["gen", "--n", "24", "--format", "json", "--source", "generators",
             "--out", str(gfile)])
        out = tmp_path / "report.json"
        assert run(["verify", "--n", "24", "--against", str(gfile),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["checks"]["against_file_agreement"]["pass"]

    def test_against_corrupted_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        out = tmp_path / "report.json"
        assert run(["verify", "--n", "16", "--against", str(bad),
                    "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert not report["checks"]["against_file_agreement"]["pass"]
        assert "FAIL against_file_agreement" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_smallest_sizes(self, n, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--n", str(n), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n"] == n
        # The rank-2 check measures blocks above the diagonal with both
        # sides >= 3; below n = 7 there is none, so the check is left out
        # and the report says so.
        assert "rank2_structure" not in report["checks"]
        assert "left out" in report["notes"]["rank2_structure"]
        assert all(c["pass"] for c in report["checks"].values())

    def test_non_finite_route_is_reported_without_traceback(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the one line is all of stderr
            code = run(["verify", "--alpha", "1", "--beta", "1000", "--n", "64",
                        "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: FloatingPointError: recurrence")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--n", "3"], ["--alpha", "3", "--n", "24"]])
    def test_report_times_each_build_and_check(self, argv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", *argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert list(report) == ["schema_version", "alpha", "beta", "n", "checks", "notes", "timings_s"]
        timings = report["timings_s"]
        assert list(timings) == ["builds", "checks"]
        assert list(timings["builds"]) == list(jacobidiff.SOURCES)
        assert list(timings["checks"]) == list(report["checks"])
        values = [*timings["builds"].values(), *timings["checks"].values()]
        assert all(isinstance(v, float) and 0 <= v < 60 for v in values)
        lines = capsys.readouterr().out.splitlines()
        assert len([ln for ln in lines if ln.startswith(("PASS", "FAIL"))]) == len(report["checks"])
        assert not any("timing" in ln for ln in lines)

    def test_against_wrong_size_file(self, tmp_path):
        gfile = tmp_path / "g.json"
        run(["gen", "--n", "8", "--format", "json", "--source", "generators",
             "--out", str(gfile)])
        out = tmp_path / "report.json"
        assert run(["verify", "--n", "16", "--against", str(gfile),
                    "--out", str(out)]) == 1


def report_without_timings(path):
    """The file's text, or for a verify report its JSON with ``timings_s``,
    the one part that changes from run to run, taken out."""
    text = path.read_text()
    if not text.startswith("{") or "timings_s" not in (report := json.loads(text)):
        return text
    del report["timings_s"]
    return json.dumps(report, indent=2)


def reference_product_error(n, rng, rounded=True):
    """The rank-1 product check pair by pair: one ``product`` per pair, its
    blocks rounded to double (as the check rounds them) or, with
    ``rounded=False``, its extended-precision dense form."""
    prod_err = 0.0
    for _ in range(cli.PRODUCT_CHECK_PAIRS):
        ga = cli._random_generators(n, 1, rng)
        gb = cli._random_generators(n, 1, rng)
        dp = ga.to_dense() @ gb.to_dense()
        prod = semisep.product(ga, gb)
        if rounded:
            prod = semisep.SemiSepGenerators(n, *(v.astype(float) for v in prod.blocks))
        err = np.abs(prod.to_dense() - dp).max()
        prod_err = max(prod_err, float(err / max(np.abs(dp).max(), 1e-30)))
    return prod_err


def recording_product_blocks(monkeypatch, n, plant=None):
    """Record the stacks of pairs passed to ``product_blocks``; ``plant(c)``
    may change the product diagonal of the last pair of the last stack."""
    real = semisep.product_blocks
    stacks = []
    per_chunk = max(1, cli.PRODUCT_CHECK_ENTRIES // n**2)
    chunks = -(-cli.PRODUCT_CHECK_PAIRS // per_chunk)

    def wrapped(A, B):
        out = real(A, B)
        if np.ndim(A[2]) == 2:  # a stack of pairs, not verify's D D
            stacks.append((A, B))
            if plant is not None and len(stacks) == chunks:
                plant(out[2][-1])
        return out

    monkeypatch.setattr(semisep, "product_blocks", wrapped)
    return stacks


def last_pair_scale(stacks):
    """max |A B| of the last pair of the last stack."""
    A, B = stacks[-1]
    ga, gb = (semisep.SemiSepGenerators(len(f[2][-1]), *(v[-1] for v in f)) for f in (A, B))
    return float(np.abs(ga.to_dense() @ gb.to_dense()).max())


class TestRank1ProductCheck:
    """verify's rank-1 product check runs its pairs in stacks."""

    @pytest.mark.parametrize("n,sizes", [(3, [20]), (48, [7, 7, 6]), (128, [1] * 20)])
    def test_stacks_match_the_pair_by_pair_loop(self, n, sizes, monkeypatch):
        stacks = recording_product_blocks(monkeypatch, n)
        got = cli._rank1_product_error(n, np.random.default_rng(5))
        assert [len(A[2]) for A, _ in stacks] == sizes
        assert got == reference_product_error(n, np.random.default_rng(5))

    @pytest.mark.parametrize("n", [3, 48, 128])
    def test_rounding_moves_the_error_by_at_most_1e_15(self, n):
        got = cli._rank1_product_error(n, np.random.default_rng(5))
        extended = reference_product_error(n, np.random.default_rng(5), rounded=False)
        assert abs(got - extended) <= 1e-15

    @pytest.mark.parametrize("n", [3, 48, 128])
    def test_no_dense_form_is_extended_precision(self, n, monkeypatch):
        real = semisep.dense_blocks
        dtypes = []

        def wrapped(blocks):
            dtypes.extend(v.dtype for v in blocks)
            return real(blocks)

        monkeypatch.setattr(semisep, "dense_blocks", wrapped)
        cli._rank1_product_error(n, np.random.default_rng(5))
        stacks = -(-cli.PRODUCT_CHECK_PAIRS // max(1, cli.PRODUCT_CHECK_ENTRIES // n**2))
        assert len(dtypes) == 3 * 5 * stacks  # both factors and the product, per stack
        assert set(dtypes) == {np.dtype(np.float64)}

    def test_draws_leave_the_generator_where_the_loop_does(self):
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        cli._rank1_product_error(48, rng)
        reference_product_error(48, ref)
        assert rng.standard_normal() == ref.standard_normal()

    def run_planted(self, plant, monkeypatch, tmp_path):
        stacks = recording_product_blocks(monkeypatch, 48, plant)
        out = tmp_path / "report.json"
        code = run(["verify", "--n", "48", "--seed", "3", "--out", str(out)])
        return code, json.loads(out.read_text())["checks"], stacks

    def test_planted_error_in_the_last_pair_fails(self, monkeypatch, tmp_path, capsys):
        def plant(c):
            c[10] += 1e-6

        code, checks, stacks = self.run_planted(plant, monkeypatch, tmp_path)
        assert code == 1
        assert "FAIL rank1_product_dense_agreement" in capsys.readouterr().out
        assert [name for name, c in checks.items() if not c["pass"]] == [
            "rank1_product_dense_agreement"
        ]
        assert checks["rank1_product_dense_agreement"]["max_error"] == pytest.approx(
            1e-6 / last_pair_scale(stacks), rel=1e-6
        )

    def test_non_finite_product_fails(self, monkeypatch, tmp_path):
        def plant(c):
            c[0] = np.nan

        code, checks, _ = self.run_planted(plant, monkeypatch, tmp_path)
        assert code == 1
        check = checks["rank1_product_dense_agreement"]
        assert np.isnan(check["max_error"]) and not check["pass"]


class TestDemo:
    def test_diffusion(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert run(["demo", "diffusion", "--n", "32", "--dt", "0.01",
                    "--steps", "50", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "t", "l2_norm"]
        norms = [float(r[2]) for r in rows[1:]]
        assert len(norms) == 51
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert "norm nonincreasing: yes" in capsys.readouterr().out

    def test_advection(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert run(["demo", "advection", "--n", "32", "--dt", "0.01",
                    "--steps", "50", "--out", str(out)]) == 0
        assert "norm conserved: yes" in capsys.readouterr().out

    def test_source_routes_agree(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["demo", "diffusion", "--n", "32", "--steps", "20",
             "--source", "generators", "--out", str(a)])
        run(["demo", "diffusion", "--n", "32", "--steps", "20",
             "--source", "closed_form", "--out", str(b)])
        na = np.array([float(r[2]) for r in list(csv.reader(a.read_text().splitlines()))[1:]])
        nb = np.array([float(r[2]) for r in list(csv.reader(b.read_text().splitlines()))[1:]])
        assert np.abs(na - nb).max() <= 1e-9

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "diffusion", "--dt", "0"],
            ["demo", "advection", "--steps", "-1"],
            ["demo", "diffusion", "--dt", "nan"],
            ["demo", "advection", "--dt", "inf"],
        ],
    )
    def test_invalid_configuration(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err

    def test_missing_problem_is_usage_error(self):
        assert run(["demo"]) == 2

    def test_unknown_problem_is_usage_error(self):
        assert run(["demo", "oscillation"]) == 2


class TestCsvExport:
    def test_round_trip_17_digits(self, tmp_path):
        b = jacobidiff.build(JacobiParams(4.0, 2.0), 6, "recurrence")
        path = tmp_path / "d.csv"
        cli.write_dense_csv(b, path)
        with open(path, newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh)]
        assert np.array_equal(np.array(rows), b.dense())


class TestNormSeriesCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "series.csv"
        cli.write_norm_series_csv(path, [(0, 0.0, 1.0), (1, 0.01, 0.5)])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "t", "l2_norm"]
        assert rows[1] == ["0", "0", "1"]
        assert float(rows[2][2]) == 0.5


class TestRunConfig:
    def test_jacobi_is_derived_from_alpha_and_beta(self):
        config = cli.RunConfig(command="gen", alpha=3.0, beta=0.5)
        assert config.jacobi == JacobiParams(3.0, 0.5)
        assert not hasattr(config, "params")


class TestParser:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [["gen"], ["verify"], ["bench"], ["demo", "diffusion"]])
    def test_parsed_defaults_are_run_config_defaults(self, argv):
        args = cli._parser().parse_args(argv)
        expected = cli.RunConfig(command=argv[0], problem=(argv[1:] or [None])[0])
        assert cli.RunConfig(**vars(args)) == expected

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argvs = [
            ["verify", "--alpha", "3", "--beta", "5", "--n", "12", "--seed", "4"],
            ["verify", "--bogus"],
            ["verify", "--n", "9"],
            ["gen", "--n", "7", "--format", "json"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

        def call(argv, fresh):
            out.unlink(missing_ok=True)
            argv = argv + ["--out", str(out)]
            if fresh:
                proc = subprocess.run([sys.executable, "-m", "ssjacobi.cli", *argv],
                                      env=env, capture_output=True, text=True, timeout=120)
                code, printed = proc.returncode, (proc.stdout, proc.stderr)
            else:
                code, printed = run(argv), tuple(capsys.readouterr())
            return code, report_without_timings(out) if out.exists() else None, printed

        shared = [call(argv, fresh=False) for argv in argvs]
        assert shared == [call(argv, fresh=True) for argv in argvs]
        assert [code for code, *_ in shared] == [0, 2, 0, 0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--dt", "0.1"],
            ["verify", "--source", "oracle"],
            ["bench", "--alpha", "3"],
            ["demo", "diffusion", "--assert-linear"],
        ],
    )
    def test_flag_of_another_subcommand_is_usage_error(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
