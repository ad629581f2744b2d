"""CLI subcommands: parsing, outputs, exit codes."""

import json
import os
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from ellipticlab import elliptic_density, EllipticParam, load_matrix, sample, EnsembleSpec
from ellipticlab import ExperimentGrid, harness
from ellipticlab import TestFunction as Bump
from ellipticlab.cli import build_parser, main, parse_complex
from ellipticlab import cli, spectral
from ellipticlab.spectral import default_probes


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("0.3+0.2i") == 0.3 + 0.2j
        assert parse_complex("-1.5-0.5i") == -1.5 - 0.5j
        assert parse_complex("2e-3i") == 2e-3j
        assert parse_complex("1e2") == 100.0 + 0.0j
        assert parse_complex("0.3 + 0.2i") == 0.3 + 0.2j
        with pytest.raises(Exception):
            parse_complex("spam")

    def test_negative_complex_values(self, capsys):
        args = build_parser().parse_args(
            ["spectrum", "--n", "8", "--rho", "0.5", "--zeta", "-0.5+0.1i", "0.2",
             "-.1-2i", "--eta", "0.1"])
        assert args.zeta == [-0.5 + 0.1j, 0.2, -0.1 - 2j]
        assert main(["solve-dyson", "--zeta", "-0.5+0.1i", "--eta", "1",
                     "--rho", "0.5"]) == 0
        spaced = capsys.readouterr().out
        assert main(["solve-dyson", "--zeta=-0.5+0.1i", "--eta", "1",
                     "--rho", "0.5"]) == 0
        assert capsys.readouterr().out == spaced

    @pytest.mark.parametrize("command", ["deloc", "girko-check"])
    def test_single_n_commands_reject_several(self, command, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        # girko-check takes no --trials and no --out-dir: it checks one sample
        # and only prints
        extra = ["--trials", "1", "--out-dir", "out"] if command == "deloc" else []
        rc = main([command, "--n", "8", "12", *extra])
        assert rc == 2
        assert "one --n value" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", [["--trials", "5"], ["--beta", "0.9"],
                                      ["--delta", "0.4"], ["--format", "csv"],
                                      ["--out-dir", "out"]],
                             ids=["trials", "beta", "delta", "format", "out-dir"])
    def test_girko_check_rejects_unread_flags(self, flag, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["girko-check", "--n", "8", *flag])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (["deloc", "--n", "8", "--trials", "1"], ["--zeta", "5"]),
        (["deloc", "--n", "8", "--trials", "1"], ["--beta", "0.9"]),
        (["mc-check", "--reps", "10"], ["--out-dir", "out"]),
        (["mc-check", "--reps", "10"], ["--format", "csv"]),
        (["density", "--rho", "0.5", "--resolution", "3"], ["--format", "csv"]),
        (["density", "--rho", "0.5", "--resolution", "3"], ["--seed", "2"]),
        (["sample", "--n", "8", "--rho", "0.5"], ["--format", "csv"]),
        (["spectrum", "--n", "8", "--rho", "0.5", "--zeta", "0", "--eta", "0.1"],
         ["--format", "csv"]),
    ], ids=["deloc-zeta", "deloc-beta", "mc-check-out-dir", "mc-check-format",
            "density-format", "density-seed", "sample-format", "spectrum-format"])
    def test_unread_flags_rejected(self, argv, flag, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["experiment", "local-law", "iso-law", "ssv-scan",
                                         "deloc", "linstats"])
    def test_threads_below_one_rejected(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        if command == "experiment":
            cfg = tmp_path / "one.json"
            cfg.write_text(json.dumps({
                "schema": 1, "ensemble": {"rho": 0.5, "seed": 1},
                "grid": {"n_values": [16], "zeta": "0.05+0.05i", "trials": 1},
                "experiments": ["local-law"], "output_dir": str(out)}))
            argv = ["experiment", str(cfg)]
        else:
            argv = [command, "--n", "16", "--trials", "1", "--out-dir", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "0"])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("n", [["0"], ["16", "0"], ["16", "16"]],
                             ids=["zero", "zero-second", "repeated"])
    def test_bad_n_values_exit_two(self, n, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["local-law", "--n", *n, "--trials", "1", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert ("n must be" in captured.err or "must not repeat" in captured.err)
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_mc_check_reps_below_one_rejected(self, reps, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc-check", "--reps", reps])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, low", [
        (["density", "--rho", "0.5", "--resolution", "0"], 2),
        (["density", "--rho", "0.5", "--resolution", "1"], 2),
        (["spectrum", "--n", "8", "--rho", "0.5", "--zeta", "0", "--eta", "0.1",
          "--trials", "0"], 1),
    ], ids=["density-resolution", "density-resolution-one", "spectrum-trials"])
    def test_zero_counts_exit_two(self, argv, low, tmp_path, capsys):
        # one density row per axis would be the box's corner alone
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"must be at least {low}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("eta", ["0", "-1", "nan", "inf"])
    def test_spectrum_bad_eta_writes_nothing(self, eta, tmp_path, capsys):
        out = tmp_path / "o2"
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--n", "4", "--rho", "0.5", "--zeta", "0",
                  "--eta", "0.1", eta, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["log-potential", "--zeta", "nan", "--rho", "0.5"],
        ["log-potential", "--zeta", "0", "--rho", "0.5", "--quad-tol", "inf"],
        ["log-potential", "--zeta", "0", "--rho", "0.5", "--quad-tol", "nan"],
        ["spectrum", "--n", "4", "--rho", "0.5", "--zeta", "nan", "--eta", "0.1"],
        ["girko-check", "--n", "8", "--zeta", "nan"],
        ["girko-check", "--n", "8", "--radius", "nan"],
        ["girko-check", "--n", "8", "--radius", "inf"],
        ["girko-check", "--n", "8", "--gate", "nan"],
        ["girko-check", "--n", "8", "--gate", "-1"],
        ["sample", "--n", "4", "--rho", "0.5", "--trial", "-1"],
        ["mc-check", "--m", "1"],
    ], ids=["potential-zeta", "potential-quad-tol-inf", "potential-quad-tol-nan",
            "spectrum-zeta", "girko-zeta", "girko-radius-nan", "girko-radius-inf",
            "girko-gate-nan", "girko-gate-negative", "sample-trial-negative",
            "mc-check-m-one"])
    def test_non_finite_input_exits_two(self, argv, tmp_path, capsys, monkeypatch):
        # rejected before any work: one error line, nothing printed or written
        monkeypatch.chdir(tmp_path)
        started = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert time.perf_counter() - started < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "error" in line]) == 1
        assert "Traceback" not in captured.err
        assert not any(tmp_path.iterdir())

    def test_threads_default_is_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert build_parser().parse_args(["local-law"]).threads == 3

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "8", "--rho", "0.5"],
        ["density", "--rho", "0.5"],
        ["spectrum", "--n", "8", "--rho", "0.5", "--zeta", "0", "--eta", "0.1"],
        ["mc-check"],
        ["girko-check", "--n", "8"],
    ])
    def test_threads_rejected_where_unused(self, argv, tmp_path):
        # only the trial pools read --threads; girko-check and mc-check take no
        # --out-dir either
        out_dir = [] if argv[0] in ("girko-check", "mc-check") else ["--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "7", *out_dir])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSolveDyson:
    def test_closed_form(self, capsys):
        rc = main(["solve-dyson", "--zeta", "0", "--eta", "1", "--rho", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["v"] == pytest.approx(0.6180339887, abs=1e-9)
        assert out["residual_mde"] < 1e-10

    def test_bulk_point(self, capsys):
        rc = main(["solve-dyson", "--zeta", "0.3+0.2i", "--eta", "1e-6",
                   "--rho", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["v"] ** 2 == pytest.approx(0.8, abs=1e-3)

    def test_invalid_eta_exits_two(self):
        assert main(["solve-dyson", "--zeta", "0", "--eta", "0", "--rho", "0.5"]) == 2

    def test_unreachable_tol_exits_three(self):
        assert main(["solve-dyson", "--zeta", "9+3i", "--eta", "1e-6",
                     "--rho", "0.5", "--tol", "1e-18"]) == 3


class TestScalarCommands:
    def test_stability(self, capsys):
        rc = main(["stability", "--zeta", "0", "--eta", "1", "--rho", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["s_spectrum"] == pytest.approx([1.0, 0.5, -0.5], abs=1e-12)

    def test_log_potential(self, capsys):
        rc = main(["log-potential", "--zeta", "0", "--rho", "0",
                   "--quad-tol", "1e-5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["L"] == pytest.approx(-0.5, abs=1e-4)

    def test_density_csv(self, tmp_path, capsys):
        rc = main(["density", "--rho", "0.5", "--resolution", "21",
                   "--out-dir", str(tmp_path), "--out", "d.csv"])
        assert rc == 0
        lines = (tmp_path / "d.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,sigma"
        assert len(lines) == 1 + 21 * 21
        param = EllipticParam(0.5)
        for row in (lines[1], lines[len(lines) // 2], lines[-1]):
            x, y, s = (float(v) for v in row.split(","))
            assert s == pytest.approx(float(elliptic_density(x + 1j * y, param)))


class TestSample:
    def test_dump_round_trip(self, tmp_path, capsys):
        rc = main(["sample", "--n", "120", "--rho", "0.5", "--seed", "5",
                   "--out-dir", str(tmp_path), "--out", "m.bin"])
        assert rc == 0
        back = load_matrix(tmp_path / "m.bin")
        direct = sample(EnsembleSpec(n=120, rho=0.5, seed=5), trial=0).entries
        assert np.array_equal(back, direct)

    def test_invalid_rademacher_mu_exits_two(self):
        rc = main(["sample", "--n", "100", "--rho", "0.5", "--mu", "0.3",
                   "--base", "rademacher-mixture"])
        assert rc == 2


class TestSpectrum:
    def test_dumps_written(self, tmp_path):
        rc = main(["spectrum", "--n", "16", "--rho", "0.5", "--zeta", "0.1+0.1i",
                   "--eta", "0.5", "0.1", "--out-dir", str(tmp_path),
                   "--prefix", "spec"])
        assert rc == 0
        eigs = (tmp_path / "spec.eigenvalues.csv").read_text().strip().splitlines()
        assert len(eigs) == 1 + 32
        rows = [json.loads(l) for l in
                (tmp_path / "spec.functionals.jsonl").read_text().strip().splitlines()]
        assert len(rows) == 2
        assert all(r["avg_trace_im"] > 0 for r in rows)

    def test_one_decomposition_alive_at_a_time(self, tmp_path, monkeypatch):
        # each (trial, zeta) is written before the next SVD, so U and V^H do not pile up
        refs, alive = [], []
        decompose = cli.decompose

        def tracked(h, *args, **kwargs):
            dec = decompose(h, *args, **kwargs)
            refs.append(weakref.ref(dec))
            alive.append(sum(ref() is not None for ref in refs))
            return dec
        monkeypatch.setattr(cli, "decompose", tracked)
        assert main(["spectrum", "--n", "16", "--rho", "0.5", "--zeta", "0.1+0.1i", "0",
                     "--eta", "0.1", "--trials", "2", "--out-dir", str(tmp_path)]) == 0
        assert alive == [1] * 4

    def test_output_independent_of_blas_threads(self, blas, tmp_path):
        # at n = 160 the SVD of the 2n x 2n Hermitization rounds differently on
        # 2 OpenBLAS threads, so the command holds its loop on one
        set_threads = spectral._openblas().scipy_openblas_set_num_threads64_
        written = {}
        for threads in (1, 2):
            set_threads(threads)
            out = tmp_path / str(threads)
            assert main(["spectrum", "--n", "160", "--rho", "0.5", "--zeta", "0.3+0.2i",
                         "--eta", "0.1", "0.01", "--out-dir", str(out)]) == 0
            assert blas() == threads
            written[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(written[1]) == 2
        assert written[1] == written[2]

    def test_unwritable_prefix_exits_two(self, tmp_path, capsys):
        assert main(["spectrum", "--n", "8", "--rho", "0.5", "--zeta", "0", "--eta", "0.1",
                     "--out-dir", str(tmp_path), "--prefix", "missing/x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "missing" in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_functionals_match_dense_inverse(self, n, tmp_path):
        # every dumped functional against the dense 2n x 2n inverse, down to eta = 1e-12
        etas = [0.5, 1e-2, 1e-6, 1e-12]
        zetas = [0.3 + 0.2j, 0j]
        assert main(["spectrum", "--n", str(n), "--rho", "0.5", "--zeta", "0.3+0.2i", "0",
                     "--eta", *map(str, etas), "--out-dir", str(tmp_path)]) == 0
        rows = [json.loads(l) for l in
                (tmp_path / "spectrum.functionals.jsonl").read_text().splitlines()]
        assert len(rows) == len(zetas) * len(etas)
        x = sample(EnsembleSpec(n=n, rho=0.5, seed=1), 0).entries
        probes = default_probes(2 * n, seed=1, k=2)
        rows = iter(rows)
        for zeta in zetas:
            h = np.zeros((2 * n, 2 * n), dtype=complex)
            h[:n, n:] = x - zeta * np.eye(n)
            h[n:, :n] = h[:n, n:].conj().T
            sign, log_det = np.linalg.slogdet(h)
            for eta in etas:
                row = next(rows)
                assert (complex(row["zeta_re"], row["zeta_im"]), row["eta"]) == (zeta, eta)
                g = np.linalg.inv(h - 1j * eta * np.eye(2 * n))
                avg = np.trace(g) / (2 * n)
                got = complex(row["avg_trace_re"], row["avg_trace_im"])
                assert abs(got - avg) <= 1e-9 * abs(avg)
                traces = np.array([[np.trace(g[:n, :n]), np.trace(g[:n, n:])],
                                   [np.trace(g[n:, :n]), np.trace(g[n:, n:])]]) / n
                got = np.array([complex(*t) for t in row["partial_traces"]]).reshape(2, 2)
                assert np.max(np.abs(got - traces)) <= 1e-9 * np.max(np.abs(traces))
                iso = {label: complex(re, im) for label, re, im in row["iso_probes"]}
                oracle = {f"{a}|{b}": np.vdot(pa, g @ pb)
                          for (a, pa), (b, pb) in zip(probes[:3], probes[1:4])}
                assert iso.keys() == oracle.keys()
                # some entries vanish at n = 1, so the scale is the largest one
                scale = max(abs(v) for v in oracle.values())
                assert all(abs(iso[k] - v) <= 1e-9 * scale for k, v in oracle.items())
                assert abs(row["log_det"] - log_det) <= 1e-9 * max(1.0, abs(log_det))


class TestExperiments:
    def test_local_law_subcommand(self, tmp_path, capsys):
        rc = main(["local-law", "--n", "64", "128", "--trials", "2",
                   "--out-dir", str(tmp_path), "--threads", "1"])
        assert rc == 0
        assert (tmp_path / "averaged_local_law.jsonl").exists()
        assert (tmp_path / "averaged_local_law.summary.json").exists()

    def test_csv_format_flag(self, tmp_path):
        rc = main(["ssv-scan", "--n", "64", "--trials", "1",
                   "--out-dir", str(tmp_path), "--format", "csv"])
        assert rc == 0
        assert (tmp_path / "small_singular_scan.csv").exists()

    def test_mc_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["mc-check", "--reps", "100"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["violation_frequency"] <= 0.1
        assert not any(tmp_path.iterdir())

    def test_girko_check(self, tmp_path, capsys):
        rc = main(["girko-check", "--n", "12", "--zeta", "0"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["discrepancy"] <= 1e-3

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_girko_check_bad_quad_tol_exits_two(self, tol, capsys):
        assert main(["girko-check", "--n", "12", f"--quad-tol={tol}"]) == 2
        assert capsys.readouterr().out == ""


class TestExperimentConfig:
    def test_missing_config_exits_two(self, tmp_path):
        assert main(["experiment", str(tmp_path / "nope.json")]) == 2

    def test_bad_schema_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema": 99}))
        assert main(["experiment", str(cfg)]) == 2

    def test_failing_gate_exits_one(self, tmp_path):
        cfg = tmp_path / "hard.json"
        cfg.write_text(json.dumps({
            "schema": 1,
            "ensemble": {"rho": 0.5, "seed": 1},
            "grid": {"n_values": [32], "zeta": "0.1+0.1i", "trials": 1},
            "experiments": ["girko-check"],
            "girko_n": 8,
            "girko_gate": 1e-15,
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["experiment", str(cfg)]) == 1

    def test_seed_override_changes_values_not_schema(self, tmp_path, capsys):
        cfg = tmp_path / "mini.json"
        cfg.write_text(json.dumps({
            "schema": 1,
            "ensemble": {"rho": 0.5, "seed": 1},
            "grid": {"n_values": [48], "zeta": "0.3+0.2i", "trials": 2,
                     "beta": 0.75, "delta": 0.1},
            "experiments": ["local-law"],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["experiment", str(cfg)]) == 0
        rows_a = [json.loads(l) for l in
                  (tmp_path / "out" / "averaged_local_law.jsonl").read_text().splitlines()]
        assert main(["experiment", str(cfg), "--seed", "2"]) == 0
        rows_b = [json.loads(l) for l in
                  (tmp_path / "out" / "averaged_local_law.jsonl").read_text().splitlines()]
        assert [set(r) for r in rows_a] == [set(r) for r in rows_b]
        assert rows_a != rows_b

    def _mini_config(self, path, **extra):
        path.write_text(json.dumps({
            "schema": 1,
            "ensemble": {"rho": 0.5, "seed": 7},
            "grid": {"n_values": [32], "zeta": "0.3+0.2i", "trials": 1},
            "experiments": ["local-law"],
            **extra,
        }))
        return str(path)

    def test_config_seed_applies_without_seed_flag(self, tmp_path):
        cfg = self._mini_config(tmp_path / "seven.json")
        assert main(["experiment", cfg, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["experiment", cfg, "--seed", "7",
                     "--out-dir", str(tmp_path / "b")]) == 0
        records = [(tmp_path / d / "averaged_local_law.jsonl").read_text()
                   for d in ("a", "b")]
        assert records[0] == records[1]

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        # --out-dir, then the config's output_dir, then $ELLIPTICLAB_OUT, then '.'
        monkeypatch.chdir(tmp_path)
        report = "averaged_local_law.jsonl"
        with_dir = self._mini_config(tmp_path / "with.json", output_dir="cfg")
        without_dir = self._mini_config(tmp_path / "without.json")
        assert main(["experiment", without_dir]) == 0
        assert (tmp_path / report).exists()
        monkeypatch.setenv("ELLIPTICLAB_OUT", str(tmp_path / "env"))
        assert main(["experiment", without_dir]) == 0
        assert (tmp_path / "env" / report).exists()
        assert main(["experiment", with_dir]) == 0
        assert (tmp_path / "cfg" / report).exists()
        assert main(["experiment", with_dir, "--out-dir", "flag"]) == 0
        assert (tmp_path / "flag" / report).exists()
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
            "cfg", "env", "flag"]

    @pytest.mark.parametrize("zeta", ["abc", "nan", "1+nani"])
    def test_bad_zeta_exits_two(self, zeta, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._mini_config(tmp_path / "bad.json", output_dir=str(out),
                                grid={"n_values": [32], "zeta": zeta, "trials": 1})
        assert main(["experiment", cfg]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and repr(zeta) in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["deloc", "density"])
    def test_single_n_experiments_reject_several_n(self, experiment, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._mini_config(
            tmp_path / "two.json", output_dir=str(out),
            grid={"n_values": [32, 48], "zeta": "0.3+0.2i", "trials": 1},
            experiments=["local-law", experiment])
        assert main(["experiment", cfg]) == 2
        assert experiment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        ({"girko_n": 512}, "girko_n"),
        ({"experiments": ["local-law", "frobnicate"]}, "frobnicate"),
        ({"experiments": ["local-law", "mc-check"], "mc_reps": 0}, "mc_reps"),
        ({"girko_gate": float("nan")}, "girko_gate"),
        ({"girko_gate": -1}, "girko_gate"),
    ], ids=["girko_n", "unknown", "mc_reps", "girko_gate-nan", "girko_gate-negative"])
    def test_config_checked_before_anything_runs(self, extra, message, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._mini_config(tmp_path / "bad.json", output_dir=str(out),
                                **{"experiments": ["local-law", "girko-check"], **extra})
        assert main(["experiment", cfg]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    # one value of the wrong JSON type per config value that `experiment` reads
    WRONG_TYPES = [
        ("ensemble.rho", "0.5"),
        ("ensemble.mu", [1.0]),
        ("ensemble.base", 1),
        ("ensemble.seed", 7.5),
        ("grid.n_values", [32.0]),
        ("grid.zeta", 0.3),
        ("grid.beta", "0.75"),
        ("grid.trials", "2"),
        ("grid.delta", None),
        ("experiments", "local-law"),
        ("output_dir", 3),
        ("alpha", "0.25"),
        ("kind", 0),
        ("girko_n", 16.0),
        ("girko_gate", True),
        ("mc_reps", 2.5),
    ]

    @pytest.mark.parametrize("name, value", WRONG_TYPES, ids=[n for n, _ in WRONG_TYPES])
    def test_config_value_of_the_wrong_type_exits_two(self, name, value, tmp_path, capsys):
        # the message names the value, and nothing runs or is written
        out = tmp_path / "out"
        cfg = json.loads(Path(self._mini_config(
            tmp_path / "cfg.json", output_dir=str(out),
            experiments=["local-law", "linstats", "girko-check", "mc-check"])).read_text())
        *section, key = name.split(".")
        (cfg[section[0]] if section else cfg)[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["experiment", str(tmp_path / "cfg.json")]) == 2
        captured = capsys.readouterr()
        assert name in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("n_values", [[16, 0], [0], [16, 16]],
                             ids=["zero-second", "zero", "repeated"])
    def test_bad_n_values_exit_two(self, n_values, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._mini_config(tmp_path / "cfg.json", output_dir=str(out),
                                grid={"n_values": n_values, "zeta": "0.3+0.2i", "trials": 1})
        assert main(["experiment", cfg]) == 2
        captured = capsys.readouterr()
        assert ("n must be" in captured.err or "must not repeat" in captured.err)
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    def test_config_directory_exits_two(self, tmp_path, capsys):
        assert main(["experiment", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert str(tmp_path) in captured.err

    @pytest.mark.parametrize("section", ["ensemble", "grid"])
    def test_config_section_not_an_object_exits_two(self, section, tmp_path, capsys):
        cfg = json.loads(Path(self._mini_config(tmp_path / "cfg.json")).read_text())
        cfg[section] = [cfg[section]]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["experiment", str(tmp_path / "cfg.json")]) == 2
        assert section in capsys.readouterr().err

    def test_failed_factor_exits_three(self, tmp_path, capsys, monkeypatch):
        lib = spectral._openblas()
        if lib is None:
            pytest.skip("numpy ships no OpenBLAS here")
        potrf = lib.scipy_zpotrf_64_

        def failing_potrf(*args):
            potrf(*args)
            args[4]._obj.value = 1      # info > 0: not positive definite
        monkeypatch.setattr(lib, "scipy_zpotrf_64_", failing_potrf)
        cfg = self._mini_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        assert main(["experiment", cfg, "--threads", "2"]) == 3
        captured = capsys.readouterr()
        assert "not positive definite" in captured.err
        assert captured.out == ""

    def test_bundled_smoke_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        start = time.time()
        rc = main(["experiment", "smoke.json", "--threads", "2"])
        elapsed = time.time() - start
        assert rc == 0
        assert elapsed < 60.0
        out = tmp_path / "smoke_out"
        assert (out / "averaged_local_law.summary.json").exists()
        assert (out / "density_map.csv").exists()


class TestOnePathPerExperiment:
    """An experiment subcommand writes and prints what the experiment does in a config."""

    def _config(self, tmp_path, experiments, **grid):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema": 1, "ensemble": {"rho": 0.5, "seed": 3},
            "grid": {"n_values": [64], "trials": 1, **grid},
            "experiments": experiments, "mc_reps": 20,
            "output_dir": str(tmp_path / "cfg")}))
        return str(cfg)

    def test_deloc_takes_delta_as_given(self, tmp_path):
        assert main(["deloc", "--n", "64", "--trials", "2", "--delta", "0.05", "--seed", "3",
                     "--out-dir", str(tmp_path / "sub")]) == 0
        cfg = self._config(tmp_path, ["deloc"], zeta="0.3+0.2i", trials=2, delta=0.05)
        assert main(["experiment", cfg]) == 0
        for name in ("delocalisation.jsonl", "delocalisation.summary.json"):
            assert ((tmp_path / "sub" / name).read_bytes()
                    == (tmp_path / "cfg" / name).read_bytes()), name
        summary = json.loads((tmp_path / "cfg" / "delocalisation.summary.json").read_text())
        assert summary["params"]["delta"] == summary["summary"]["delta"] == 0.05

    def test_mc_check_draws_the_config_stream(self, tmp_path, capsys, monkeypatch):
        # the subcommand's defaults (m = 100, mc-delta 0.1) are the config's; both
        # lines read 0 violations here, so the Monte Carlo means are compared too
        means = []
        estimate = harness.monte_carlo_estimate
        monkeypatch.setattr(harness, "monte_carlo_estimate",
                            lambda *args: means.append(estimate(*args)) or means[-1])
        main(["mc-check", "--seed", "3", "--rho", "0.5", "--delta", "0.1", "--reps", "20"])
        sub, sub_means = json.loads(capsys.readouterr().out), means[:]
        means.clear()
        main(["experiment", self._config(tmp_path, ["mc-check"], zeta="0.05+0.05i")])
        assert json.loads(capsys.readouterr().out) == sub
        assert means == sub_means and len(means) == 20

    def test_stdout_is_strict_json(self, tmp_path, capsys):
        # one n gives local-law and linstats a nan slope: it prints as null,
        # since NaN is not JSON (RFC 8259); the summary files keep NaN
        def no_constant(name):
            raise ValueError(f"{name} in a stdout line")

        names = [*harness.EXPERIMENTS, "girko-check", "mc-check"]
        assert main(["experiment", self._config(tmp_path, names, zeta="0.05+0.05i")]) == 0
        lines = [json.loads(line, parse_constant=no_constant)
                 for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == len(names)
        slopes = {line["experiment"]: line["summary"]["slope_vs_n"] for line in lines
                  if "slope_vs_n" in line.get("summary", {})}
        assert slopes == {"averaged_local_law": None, "linear_statistics": None}
        summary = json.loads((tmp_path / "cfg" / "linear_statistics.summary.json").read_text())
        assert np.isnan(summary["summary"]["slope_vs_n"])

    @pytest.mark.parametrize("command", ["local-law", "iso-law", "ssv-scan", "deloc",
                                         "linstats", "girko-check", "mc-check"])
    def test_one_json_line_with_the_config_keys(self, command, tmp_path, capsys):
        if command == "girko-check":
            argv = ["--n", "16", "--zeta", "0.05+0.05i"]
        elif command == "mc-check":
            argv = ["--reps", "20"]
        else:
            argv = ["--n", "64", "--trials", "1", "--out-dir", str(tmp_path / "sub")]
            argv += [] if command == "deloc" else ["--zeta", "0.05+0.05i"]
        main([command, *argv, "--seed", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        sub = json.loads(lines[0])
        main(["experiment", self._config(tmp_path, [command], zeta="0.05+0.05i")])
        (line,) = capsys.readouterr().out.splitlines()
        cfg = json.loads(line)
        assert sub.keys() == cfg.keys()
        assert sub["experiment"] == cfg["experiment"]
        if "summary" in cfg:
            assert sub["summary"].keys() == cfg["summary"].keys()


POOLED = ["local-law", "iso-law", "ssv-scan", "deloc", "linstats", "error-matrix"]


def _pooled_config(tmp_path, n, trials=3, experiments=POOLED, mu=1.0):
    out = tmp_path / f"out{n}"
    cfg = tmp_path / f"pooled{n}.json"
    cfg.write_text(json.dumps({
        "schema": 1,
        "ensemble": {"rho": 0.5, "mu": mu, "seed": 3},
        "grid": {"n_values": [n], "zeta": "0.05+0.05i", "trials": trials,
                 "beta": 0.75, "delta": 0.1},
        "alpha": 0.25,
        "experiments": list(experiments),
        "output_dir": str(out),
    }))
    return str(cfg), out


class TestSharedTrialContexts:
    """A config's sample-based experiments share each (n, trial) sample and its factorizations."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"sample": [], "eig": [], "eigvals": [], "svd": [], "gram": []}

        def counted(name, fn, key=lambda *a, **k: None):
            def wrapper(*args, **kwargs):
                seen[name].append(key(*args, **kwargs))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "sample", counted(
            "sample", harness.sample, lambda spec, trial=0: (spec.n, trial)))
        # eig and eigvals record the dtype of the matrix they factor
        monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig, lambda a: a.dtype))
        monkeypatch.setattr(np.linalg, "eigvals", counted(
            "eigvals", np.linalg.eigvals, lambda a: a.dtype))
        monkeypatch.setattr(np.linalg, "svd", counted(
            "svd", np.linalg.svd, lambda a, full_matrices=True, compute_uv=True, **_: compute_uv))
        # every n x n factor of the resolvent goes through one Gram inverse
        monkeypatch.setattr(spectral, "_gram_inverse", counted(
            "gram", spectral._gram_inverse, lambda a, eta, adjoint=False: a.shape))
        return seen

    @pytest.mark.parametrize("n", [64, 128])
    def test_one_sample_and_one_factorization_per_trial(self, n, calls, tmp_path):
        cfg, out = _pooled_config(tmp_path, n)
        assert main(["experiment", cfg, "--threads", "2"]) == 0
        assert sorted(calls["sample"]) == [(n, t) for t in range(3)]
        assert len(calls["eig"]) == 3
        assert calls["eigvals"] == []
        # one SVD of X - zeta, values only, serves ssv-scan
        assert calls["svd"] == [False] * 3
        # and one resolvent solver serves local-law, iso-law and error-matrix: the
        # inverse of (X - zeta)(X - zeta)^H + eta^2, and error-matrix's G22
        assert calls["gram"] == [(n, n)] * 6
        assert len(list(out.glob("*.jsonl"))) == len(POOLED)

    def test_density_samples_trial_zero_only(self, calls, tmp_path):
        cfg, out = _pooled_config(tmp_path, 64, experiments=["density"])
        assert main(["experiment", cfg]) == 0
        assert calls["sample"] == [(64, 0)]
        assert len(calls["eigvals"]) == 1 and calls["eig"] == []
        assert (out / "density_map.csv").exists()

    @pytest.mark.parametrize("mu, dtype", [(1.0, np.float64), (0.5, np.complex128)])
    def test_real_samples_use_the_real_eigensolver(self, mu, dtype, calls, tmp_path):
        for experiments in (["deloc"], ["linstats", "density"]):
            cfg, _ = _pooled_config(tmp_path, 64, trials=2, experiments=experiments, mu=mu)
            assert main(["experiment", cfg]) == 0
        assert calls["eig"] == [dtype] * 2
        assert calls["eigvals"] == [dtype] * 2

    @pytest.mark.parametrize("n", [64, 128])
    def test_config_records_match_standalone_experiments(self, n, tmp_path):
        cfg, out = _pooled_config(tmp_path, n)
        assert main(["experiment", cfg, "--threads", "2"]) == 0
        grid = ExperimentGrid(n_values=(n,), zeta=0.05 + 0.05j, beta=0.75,
                              trials=3, delta=0.1, seed=3, rho=0.5)
        standalone = [
            harness.averaged_local_law(grid, threads=2),
            harness.isotropic_local_law(grid, threads=2),
            harness.small_singular_scan(grid, threads=2),
            harness.delocalisation_test(grid.ensemble_spec(n), delta=0.1, trials=3,
                                        threads=2),
            harness.linear_statistics(grid, Bump(center=grid.zeta, alpha=0.25),
                                      threads=2),
            harness.error_matrix_experiment(grid, threads=2),
        ]
        for rep in standalone:
            got = [json.loads(line) for line in
                   (out / f"{rep.name}.jsonl").read_text().splitlines()]
            want = [json.loads(json.dumps(r.to_dict())) for r in rep.records]
            # eig in place of eigvals rounds differently
            if rep.name != "linear_statistics":
                assert got == want, rep.name
                continue
            assert [sorted(g) for g in got] == [sorted(w) for w in want]
            for g, w in zip(got, want):
                for key, value in w.items():
                    if type(value) is float:
                        assert g[key] == pytest.approx(value, rel=1e-12, abs=0), (rep.name, key)
                    else:
                        assert g[key] == value, (rep.name, key)
