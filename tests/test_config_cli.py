import json
import math
from pathlib import Path

import numpy as np
import pytest

from phaselab.cli import main
from phaselab.config import DEFAULTS, apply_overrides, load_config, validate
from phaselab.errors import ConfigurationError
from phaselab.io import dump_raw_array, load_raw_array
from phaselab.trajectory import DEFAULT_DT, resolve_steps
from phaselab.vlasov import BOUNDARY_TOL


REPO = Path(__file__).resolve().parents[1]


def _readme_configuration() -> str:
    readme = (REPO / "README.md").read_text()
    return readme.split("\n## Configuration", 1)[1].split("\n## ", 1)[0]


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "experiment": "vlasov",
        "N": 48,
        "T": 0.05,
        "dt": 0.005,
        "sign": 1,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_defaults_fill_in(self, config_file):
        cfg = load_config(config_file)
        assert cfg["seed"] == 0
        assert cfg["profile"]["name"] == "maxwellian"
        assert cfg["sweep_N"] == [64, 96, 128, 192, 256]

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            validate({"bogus_field": 1})

    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            validate({"N": 63})
        with pytest.raises(ConfigurationError):
            validate({"T": -1.0})
        with pytest.raises(ConfigurationError):
            validate({"dt": 0.0})
        with pytest.raises(ConfigurationError):
            validate({"sweep_N": [64, 48]})
        with pytest.raises(ConfigurationError):
            validate({"sweep_N": [63, 64]})
        with pytest.raises(ConfigurationError):
            validate({"probes": ["nosuch"]})
        with pytest.raises(ConfigurationError):
            validate({"experiment": "nosuch"})
        with pytest.raises(ConfigurationError):
            validate({"sign": 5})

    def test_overrides(self, config_file):
        cfg = load_config(config_file)
        cfg2 = apply_overrides(cfg, ["T=0.25", "profile.sigma_xi=0.38",
                                     'sweep_N=[48,64,96,128]'])
        assert cfg2["T"] == 0.25
        assert cfg2["profile"]["sigma_xi"] == 0.38
        assert cfg2["sweep_N"] == [48, 64, 96, 128]
        with pytest.raises(ConfigurationError):
            apply_overrides(cfg, ["notakeyvalue"])

    @pytest.mark.parametrize(
        "path", sorted((REPO / "configs").glob("*.json")),
        ids=lambda path: path.name)
    def test_shipped_config_validates(self, path):
        from phaselab.sweeps import PROBE_TABLE

        assert set(load_config(path)["probes"]) <= set(PROBE_TABLE)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.json")

    def test_snapshot_stride_is_not_a_field(self):
        with pytest.raises(ConfigurationError, match="unknown config field 'snapshot_stride'"):
            validate({"snapshot_stride": 3})

    def test_readme_table_lists_every_field(self):
        rows = [line.split("|")[1] for line in _readme_configuration().splitlines()
                if line.startswith("| `")]
        assert {name for row in rows for name in row.split("`")[1::2]} == set(DEFAULTS)

    def test_readme_states_the_default_step(self):
        # the dt row and the step-count sentence follow DEFAULT_DT
        section = _readme_configuration()
        dt_row = next(line for line in section.splitlines() if line.startswith("| `T`, `dt`"))
        assert f"`null` -> {DEFAULT_DT} " in dt_row
        text = " ".join(section.split())
        steps, _ = resolve_steps(0.5, None)
        assert f"the default step runs {steps} steps to T = 0.5," in text
        quick = load_config(REPO / "configs" / "quick.json")
        steps, dt = resolve_steps(quick["T"], quick["dt"])
        assert f"`configs/quick.json` (T = {quick['T']}) runs {steps} steps of {dt:.4g}." in text


class TestCli:
    def test_run_vlasov_writes_log(self, config_file, tmp_path):
        assert main(["run", "--config", str(config_file)]) == 0
        log = tmp_path / "out" / "vlasov_trajectory.csv"
        lines = log.read_text().splitlines()
        assert lines[0].startswith("time,mass,l2_norm,energy,min_value")
        # free columns: mass constant for this short run
        first = float(lines[1].split(",")[1])
        last = float(lines[-1].split(",")[1])
        assert first == pytest.approx(last, rel=1e-12)

    def test_run_vlasov_logs_the_guard_margin(self, config_file, tmp_path):
        # the last column shows how close the support-escape guard came to tripping
        assert main(["run", "--config", str(config_file)]) == 0
        lines = (tmp_path / "out" / "vlasov_trajectory.csv").read_text().splitlines()
        assert lines[0].endswith(",momentum,boundary_fraction")
        margins = [float(line.split(",")[-1]) for line in lines[1:]]
        assert len(margins) == 11
        assert all(0.0 <= m <= BOUNDARY_TOL for m in margins)

    @pytest.mark.parametrize("experiment, header", [
        ("vlasov", "time,mass,l2_norm,energy,min_value,l1_norm,momentum,boundary_fraction"),
        ("hartree", "time,trace,l2_norm,energy,min_eigenvalue"),
        ("linear-hartree", "time,trace,l2_norm,energy,min_eigenvalue"),
    ])
    def test_run_csv_header_is_the_flow_record_order(self, config_file, tmp_path,
                                                      experiment, header):
        assert main(["run", "--config", str(config_file),
                     "--set", f"experiment={experiment}"]) == 0
        name = experiment.replace("-", "_")
        lines = (tmp_path / "out" / f"{name}_trajectory.csv").read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 12

    def test_misspelled_profile_key_exits_2(self, config_file, capsys):
        assert main(["probe", "--config", str(config_file), "--name", "norms",
                     "--set", "profile.sigma=0.3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error: profile 'maxwellian'")
        assert "'sigma'" in err

    @pytest.mark.parametrize("override", ["profile.perturbation=true", 'profile.perturbation="x"',
                                          "profile.perturbation=[1]", "profile.mode=1.7"])
    def test_non_number_profile_field_exits_2(self, override, tmp_path, capsys):
        # a profile parameter is a JSON number, and a mode an integer: a
        # boolean is not read as 1.0, nor 1.7 truncated to 1
        assert main(["sweep", "--config", str(REPO / "configs" / "quick.json"), "--jobs", "1",
                     "--out", str(tmp_path / "out"), "--set", 'probes=["b_remainder"]',
                     "--set", override]) == 2
        assert capsys.readouterr().err.startswith("config-error: ")

    def test_non_finite_profile_exits_2(self, config_file, tmp_path, capsys):
        assert main(["run", "--config", str(config_file), "--set", "profile.sigma_xi=0"]) == 2
        assert capsys.readouterr().err.startswith(
            "config-error: profile 'maxwellian' has non-finite samples")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["T", "dt", "L_x", "L_xi", "profile.sigma_xi"])
    def test_non_finite_number_exits_2(self, key, value, tmp_path, capsys):
        code = main(["run", "--config", str(REPO / "configs" / "quick.json"),
                     "--set", f"{key}={value}", "--set", f"out_dir={tmp_path}"])
        assert code == 2
        err = capsys.readouterr().err
        # the message names the field, before any computation starts
        assert err.startswith("config-error: ") and "finite" in err
        assert repr(key.split(".")[-1]) in err

    def test_negative_seed_exits_2(self, config_file, capsys):
        assert main(["sweep", "--config", str(config_file), "--seed", "-1",
                     "--set", "sweep_N=[48,64,96,128]",
                     "--set", 'probes=["commutator"]', "--jobs", "1"]) == 2
        assert capsys.readouterr().err.startswith("config-error: seed")

    @pytest.mark.parametrize("override", [
        "N=true", "L_x=true", "L_xi=false", "sign=true", "T=true", "dt=true", "dt=false",
        "seed=false", "sweep_N=[false,64,96,128]", "sweep_N=[48,64,96,true]"])
    def test_boolean_number_exits_2(self, config_file, capsys, override):
        # JSON true/false is not a number in any numeric field
        assert main(["sweep", "--config", str(config_file), "--set", override,
                     "--set", 'probes=["convergence"]', "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error: ") and override.split("=")[0] in err

    def test_odd_n_exits_2(self, config_file):
        assert main(["run", "--config", str(config_file), "--set", "N=63"]) == 2

    def test_unknown_probe_exits_2(self, config_file):
        assert main(["sweep", "--config", str(config_file),
                     "--set", 'probes=["nope"]']) == 2

    def test_short_sweep_list_exits_2(self, config_file):
        assert main(["sweep", "--config", str(config_file),
                     "--set", "sweep_N=[48,64]"]) == 2

    def test_repeated_probe_exits_2(self, config_file):
        assert main(["sweep", "--config", str(config_file),
                     "--set", 'probes=["init_diff","init_diff"]']) == 2

    def test_empty_probes_exits_2(self, config_file):
        assert main(["sweep", "--config", str(config_file),
                     "--set", "probes=[]"]) == 2

    def test_solver_guard_exits_3(self, config_file):
        # momentum support too wide: the sampled datum fails its boundary
        # amplitude check (a TruncationError) before the first step
        code = main(["run", "--config", str(config_file),
                     "--set", 'profile={"name":"gaussian","sigma_xi":2.2}',
                     "--set", "T=1.0", "--set", "dt=0.05"])
        assert code == 3

    def test_guard_trips_mid_run_exits_3(self, tmp_path, capsys):
        # a datum that samples cleanly and then pushes momentum-boundary mass
        # past the support-escape guard during the run
        code = main(["run", "--config", str(REPO / "configs" / "quick.json"),
                     "--set", 'profile={"name":"gaussian","a":3,"sigma_x":0.4,"sigma_xi":0.6}',
                     "--set", "T=1.0", "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver-error: momentum-boundary mass ")
        assert err.rstrip().endswith("at t=0.875")

    def test_sweep_probe_and_report(self, config_file, tmp_path):
        code = main(["sweep", "--config", str(config_file),
                     "--set", "sweep_N=[48,64,96,128]",
                     "--set", 'probes=["b_remainder"]', "--jobs", "1"])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "b_remainder.json").exists()
        assert (out / "sweep_summary.csv").exists()
        assert main(["report", str(out)]) == 0
        merged = (out / "merged_reports.csv").read_text().splitlines()
        assert merged[0] == "run,probe,hbar,lhs,budget,ratio,slope,pass"
        assert len(merged) == 5
        assert (out / "plot_b_remainder.csv").exists()

    def test_report_rows_are_the_summary_rows(self, config_file, tmp_path):
        # weight_remainder fits no slope: its slope cells are empty in both files
        # (on this short ladder it fails a check, which the rows carry as pass=false)
        main(["sweep", "--config", str(config_file), "--set", "sweep_N=[48,64,96,128]",
              "--set", 'probes=["weight_remainder","b_remainder"]', "--jobs", "1"])
        out = tmp_path / "out"
        assert main(["report", str(out), "--out", str(tmp_path / "merged")]) == 0
        merged = (tmp_path / "merged" / "merged_reports.csv").read_text().splitlines()
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert merged[0] == "run," + summary[0]
        assert sorted(row.split(",", 1)[1] for row in merged[1:]) == sorted(summary[1:])

    def test_sweep_honours_the_configured_box(self, config_file, tmp_path):
        common = ["sweep", "--config", str(config_file), "--set", "sweep_N=[48,64,96,128]",
                  "--set", 'probes=["b_remainder"]', "--jobs", "1"]
        main([*common, "--set", f"out_dir={tmp_path / 'default'}"])
        main([*common, "--set", "L_x=3.0", "--set", f"out_dir={tmp_path / 'box'}"])
        report = json.loads((tmp_path / "box" / "b_remainder.json").read_text())
        # hbar = L_x L_xi / (2 pi N) with L_xi = 2 pi: 3 / N, so 0.0625 at N=48
        assert report["hbar"] == pytest.approx([3.0 / N for N in (48, 64, 96, 128)], rel=1e-12)
        assert ((tmp_path / "box" / "b_remainder.json").read_bytes()
                != (tmp_path / "default" / "b_remainder.json").read_bytes())

    def test_probe_is_a_one_probe_sweep(self, config_file, tmp_path, capsys):
        common = ["--config", str(config_file), "--set", "sweep_N=[48,64,96,128]",
                  "--jobs", "1"]
        assert main(["probe", *common, "--name", "b_remainder",
                     "--set", f"out_dir={tmp_path / 'probe'}"]) == 0
        probe_out = capsys.readouterr().out
        assert main(["sweep", *common, "--set", 'probes=["b_remainder"]',
                     "--set", f"out_dir={tmp_path / 'sweep'}"]) == 0
        assert capsys.readouterr().out == probe_out
        for name in ("b_remainder.json", "sweep_summary.csv"):
            assert (tmp_path / "probe" / name).read_bytes() == (tmp_path / "sweep" / name).read_bytes()

    def test_unknown_probe_name_exits_2(self, config_file):
        assert main(["probe", "--config", str(config_file), "--name", "nope"]) == 2

    def test_report_empty_dir_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2

    def test_report_malformed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "broken.json").write_text("{not json")
        assert main(["report", str(bad)]) == 2
        # parsed reports whose fields cannot be read: ragged, non-numeric and
        # scalar series, a budget or ratio longer than hbar, a non-string
        # probe, a slope that is no finite number, a verdict that is no bool
        good = '"probe": "x", "hbar": [0.1, 0.2], "lhs": [1.0, 0.5]'
        for name, text in [("ragged", '{"probe": "x", "hbar": [0.1, 0.2], "lhs": [1.0]}'),
                           ("text", '{"probe": "x", "hbar": [0.1, 0.2], "lhs": [1.0, "a"]}'),
                           ("scalar", '{"probe": "x", "hbar": 0.1, "lhs": [1.0]}'),
                           ("long_budget", '{%s, "budget": [1.0, 1.0, 1.0]}' % good),
                           ("long_ratio", '{%s, "ratio": [1.0, 1.0, 1.0]}' % good),
                           ("list_probe", '{"probe": ["x"], "hbar": [0.1], "lhs": [1.0]}'),
                           ("text_slope", '{%s, "slope": "abc"}' % good),
                           ("nan_slope", '{%s, "slope": NaN}' % good),
                           ("inf_slope", '{%s, "slope": Infinity}' % good),
                           ("bool_slope", '{%s, "slope": true}' % good),
                           ("text_passed", '{%s, "passed": "yes"}' % good),
                           ("null_passed", '{%s, "passed": null}' % good)]:
            capsys.readouterr()
            rdir = tmp_path / name
            rdir.mkdir()
            (rdir / "report.json").write_text(text)
            assert main(["report", str(rdir)]) == 2, name
            assert capsys.readouterr().err == (
                f"io-error: malformed report file {rdir / 'report.json'}\n"), name

    @pytest.mark.parametrize("series", ["hbar", "lhs", "budget", "ratio"])
    def test_report_rejects_boolean_numbers(self, series, tmp_path, capsys):
        # a JSON boolean is no number; an infinite ratio, which a report with
        # a budget <= 0 carries, still is
        report = {"probe": "x", "hbar": [0.1, 0.05], "lhs": [1.0, 0.5],
                  "budget": [2.0, 1.0], "ratio": [0.5, 0.5]}
        rdir = tmp_path / "reports"
        rdir.mkdir()
        fp = rdir / "report.json"
        report["ratio"][0] = math.inf
        fp.write_text(json.dumps(report))
        assert main(["report", str(rdir)]) == 0
        report[series][0] = True
        fp.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["report", str(rdir)]) == 2
        assert capsys.readouterr().err == f"io-error: malformed report file {fp}\n"

    @pytest.mark.parametrize("series, value", [
        *((s, math.nan) for s in ("hbar", "lhs", "budget", "ratio")),
        *((s, v) for s in ("hbar", "lhs", "budget") for v in (math.inf, -math.inf))])
    def test_report_rejects_nan_and_infinite_numbers(self, series, value, tmp_path, capsys):
        # json reads NaN and Infinity; neither is a report number, bar an
        # infinite ratio
        report = {"probe": "x", "hbar": [0.1, 0.05], "lhs": [1.0, 0.5],
                  "budget": [2.0, 1.0], "ratio": [0.5, 0.5]}
        rdir = tmp_path / "reports"
        rdir.mkdir()
        fp = rdir / "report.json"
        report[series][0] = value
        fp.write_text(json.dumps(report))
        assert main(["report", str(rdir)]) == 2
        assert capsys.readouterr().err == f"io-error: malformed report file {fp}\n"
        assert not (rdir / "merged_reports.csv").exists()

    def test_main_rate_emitted(self, config_file, tmp_path):
        code = main(["sweep", "--config", str(config_file),
                     "--set", "sweep_N=[48,64,96,128]", "--set", "T=0.1",
                     "--set", 'probes=["convergence"]', "--jobs", "1"])
        assert code == 0
        assert main(["report", str(tmp_path / "out")]) == 0
        rate = (tmp_path / "out" / "main_rate.csv").read_text().splitlines()
        assert rate[0] == "hbar,l2_error,fitted_slope"
        assert len(rate) == 5

    def test_probe_norms(self, config_file, tmp_path, capsys):
        assert main(["probe", "--config", str(config_file), "--name", "norms"]) == 0
        rows = (tmp_path / "out" / "norms.csv").read_text().splitlines()
        assert rows[0] == "spec,value"

    @pytest.mark.parametrize("name", ["2024", "null"])
    def test_out_is_a_path(self, config_file, tmp_path, monkeypatch, name):
        # a directory name that parses as JSON stays a name, and --out wins over --set
        monkeypatch.chdir(tmp_path)
        assert main(["probe", "--config", str(config_file), "--name", "norms",
                     "--set", "out_dir=elsewhere", "--out", name]) == 0
        assert (tmp_path / name / "norms.csv").exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_byte_identical_reruns(self, config_file, tmp_path):
        for d in ("a", "b"):
            main(["sweep", "--config", str(config_file),
                  "--set", "sweep_N=[48,64,96,128]",
                  "--set", 'probes=["wick_square"]',
                  "--set", f"out_dir={tmp_path / d}", "--jobs", "1"])
        ja = (tmp_path / "a" / "wick_square.json").read_bytes()
        jb = (tmp_path / "b" / "wick_square.json").read_bytes()
        assert ja == jb

    @pytest.mark.parametrize("dump", [False, True])
    @pytest.mark.parametrize("experiment, written", [
        ("vlasov", {"vlasov_trajectory.csv"}),
        ("hartree", {"hartree_trajectory.csv"}),
        ("linear-hartree", {"linear_hartree_trajectory.csv"}),
        ("twin-classical", {"classical_stability.json"}),
        ("twin-quantum", {"quantum_stability.json"}),
    ])
    def test_run_writes_exactly(self, config_file, tmp_path, experiment, written, dump):
        code = main(["run", "--config", str(config_file), "--set", f"experiment={experiment}",
                     "--set", "N=32", "--set", "T=0.02",
                     "--set", f"dump_snapshots={json.dumps(dump)}"])
        assert code == 0
        if dump and not experiment.startswith("twin"):
            stem = experiment.replace("-", "_") + "_final"
            written = written | {stem + ".bin", stem + ".json"}
        assert {p.name for p in (tmp_path / "out").iterdir()} == written

    def test_twin_experiments_run(self, config_file, tmp_path):
        code = main(["run", "--config", str(config_file),
                     "--set", "experiment=twin-classical", "--set", "T=0.1",
                     "--set", "N=48"])
        assert code == 0
        assert (tmp_path / "out" / "classical_stability.json").exists()

    def test_failing_probe_exits_1(self, config_file, monkeypatch, capsys):
        from phaselab import sweeps
        from phaselab.reports import ProbeReport

        def fake_reports(members):
            rep = ProbeReport(probe="wick_square", hbar=[0.1, 0.05, 0.025, 0.0125],
                              lhs=[1, 1, 1, 1], budget=[1, 1, 1, 1])
            rep.finalize_ratios()
            rep.require("lhs_slope", 0.0, [0.85, 1.15])
            return [rep]

        monkeypatch.setitem(sweeps.PROBE_TABLE, "wick_square",
                            sweeps.Probe(lambda b: {}, fake_reports))
        code = main(["sweep", "--config", str(config_file),
                     "--set", "sweep_N=[48,64,96,128]",
                     "--set", 'probes=["wick_square"]', "--jobs", "1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "  lhs_slope: observed=0.0 bound=[0.85, 1.15]" in out.splitlines()


    def test_internal_error_exits_4(self, config_file, monkeypatch, capsys):
        from phaselab import cli, sweeps

        def broken_reports(members):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(sweeps.PROBE_TABLE, "wick_square",
                            sweeps.Probe(lambda b: {}, broken_reports))
        code = main(["sweep", "--config", str(config_file),
                     "--set", "sweep_N=[48,64,96,128]",
                     "--set", 'probes=["wick_square"]', "--jobs", "1"])
        assert code == cli.EXIT_INTERNAL == 4
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "internal-error: LinAlgError: SVD did not converge"
        assert err[1].startswith("Traceback")

    def test_solver_error_names_probe_and_n(self, config_file, monkeypatch, capsys):
        from phaselab import cli, vlasov

        # every Vlasov step now trips the momentum-boundary guard
        monkeypatch.setattr(vlasov, "BOUNDARY_TOL", -1.0)
        code = main(["sweep", "--config", str(config_file),
                     "--set", "sweep_N=[48,64,96,128]",
                     "--set", 'probes=["positivity_defect"]', "--jobs", "1"])
        assert code == cli.EXIT_SOLVER == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(
            "solver-error: probe positivity_defect, N=48: momentum-boundary mass")

    def test_twin_consumer_error_names_probe_and_t(self, config_file, monkeypatch, capsys):
        from phaselab import cli, stability
        from phaselab.errors import WrapAmbiguityError

        calls = []
        rate = stability.quantum_rate

        def third_fails(*args):
            calls.append(1)
            if len(calls) == 3:
                raise WrapAmbiguityError("antipodal mass")
            return rate(*args)

        monkeypatch.setattr(stability, "quantum_rate", third_fails)
        code = main(["run", "--config", str(config_file), "--set", "experiment=twin-quantum"])
        assert code == cli.EXIT_SOLVER == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["solver-error: probe quantum_stability, t=0.01: antipodal mass"]

    def test_probe_registry_covers_every_probe(self):
        from phaselab import sweeps
        from phaselab.config import PROBES

        assert tuple(sweeps.PROBE_TABLE) == PROBES

    def test_run_table_covers_every_experiment(self):
        from phaselab import cli
        from phaselab.config import EXPERIMENTS

        assert tuple(cli.RUNS) == EXPERIMENTS

    def test_shared_dynamics_pass_matches_single_probes(self, config_file, tmp_path):
        from phaselab.config import PROBES

        common = ["--config", str(config_file), "--set", "sweep_N=[48,64,96,128]",
                  "--set", "T=0.1", "--set", "sign=1", "--jobs", "1"]
        # the verdicts themselves are not the point: sqrt_comparison fails its
        # envelope check at this short horizon, in the shared pass and alone
        code = main(["sweep", *common, "--set", f"probes={json.dumps(list(PROBES))}",
                     "--set", f"out_dir={tmp_path / 'shared'}"])
        codes = [main(["sweep", *common, "--set", f'probes=["{name}"]',
                       "--set", f"out_dir={tmp_path / name}"]) for name in PROBES]
        assert code == max(codes)
        singles = {p.name: p.read_bytes() for name in PROBES
                   for p in (tmp_path / name).glob("*.json")}
        shared = {p.name: p.read_bytes() for p in (tmp_path / "shared").glob("*.json")}
        assert len(shared) == 11
        assert shared == singles


class TestIo:
    def test_raw_array_roundtrip(self, tmp_path, grid32, rng):
        arr = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        base = tmp_path / "dump"
        bin_path, json_path = dump_raw_array(base, arr, grid32, "kernel")
        sidecar = json.loads(json_path.read_text())
        assert sidecar["shape"] == [32, 32]
        assert sidecar["grid"]["hbar"] == grid32.hbar
        assert sidecar["byte_order"] == "little-endian"
        back = load_raw_array(base)
        np.testing.assert_array_equal(back, arr)

    def test_real_raw_array(self, tmp_path, grid32):
        arr = np.linspace(0, 1, 32 * 32).reshape(32, 32)
        dump_raw_array(tmp_path / "real", arr, grid32)
        back = load_raw_array(tmp_path / "real")
        np.testing.assert_array_equal(back, arr)
