import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caloric import DomainTooSmallError, SpaceTimeField, SpatialGrid, cli, field_to_csv
from caloric.cli import (
    PIPELINES,
    ExperimentConfig,
    config_from_ini,
    config_to_ini,
    emit_plots,
    main,
    run_experiment,
)


_FLOATS = st.floats(allow_nan=False)  # infinities, subnormals and -0.0 included
# configparser strips a value and reads it line by line
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                max_size=24).map(str.strip)


def _field_strategy(name: str, default):
    """Any value of the field's type; the pipeline is one of the real ones."""
    if name == "pipeline":
        return st.sampled_from(PIPELINES)
    if isinstance(default, int):
        return st.integers(-2**62, 2**62)
    if isinstance(default, float):
        return _FLOATS
    if isinstance(default, tuple):
        return st.lists(_FLOATS, max_size=8).map(tuple)
    return _TEXT


_CONFIGS = st.builds(ExperimentConfig, **{
    f.name: _field_strategy(f.name, getattr(ExperimentConfig(), f.name))
    for f in fields(ExperimentConfig)})


class TestConfig:
    @given(cfg=_CONFIGS)
    @example(cfg=ExperimentConfig(pipeline="recover", out_dir="runs/50%_done", radii=(),
                                  evolve_times=(0.1, 5e-324, 0.30000000000000004)))
    @settings(max_examples=150, deadline=None)
    def test_ini_round_trip_property(self, cfg):
        assert config_from_ini(config_to_ini(cfg)) == cfg

    def test_round_trip(self):
        cfg = ExperimentConfig(pipeline="growth-fit", solution_id="eigenmode:omega=2",
                               grid_points=512, radii=(2.0, 3.0, 4.0, 5.0, 6.0),
                               strip_a=1.0, strip_b=2.0)
        assert config_from_ini(config_to_ini(cfg)) == cfg

    def test_ini_parsing_with_id_alias(self):
        cfg = config_from_ini("""
[experiment]
pipeline = recover
[datum]
id = dirac:x0=0
[grid]
grid_points = 512
""")
        assert cfg.pipeline == "recover"
        assert cfg.datum_id == "dirac:x0=0"
        assert cfg.grid_points == 512

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="valid pipelines"):
            ExperimentConfig(pipeline="solve-everything")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_ini("[grid]\nresolution = 4\n")


class TestRunExperiment:
    def test_malformed_strip_exits_2(self, tmp_path):
        cfg = ExperimentConfig(pipeline="growth-fit", strip_a=2.0, strip_b=1.0,
                               out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 2
        summary = (tmp_path / "summary.txt").read_text()
        assert "0 < a < b" in summary  # cites the strip invariant

    def test_homotopy_pipeline(self, tmp_path):
        cfg = ExperimentConfig(pipeline="homotopy", solution_id="gaussian_kernel:t0=1",
                               grid_points=256, grid_levels=3, method="spectral_multiplier",
                               out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 0
        body = (tmp_path / "homotopy.csv").read_text().strip().splitlines()
        assert body[0] == "solution,s,t,h_id,grid_level,lhs,rhs,residual"
        residuals = [float(ln.split(",")[-1]) for ln in body[1:]]
        assert residuals == sorted(residuals, reverse=True)
        assert (tmp_path / "plots.gp").exists()

    def test_growth_fit_pipeline(self, tmp_path):
        cfg = ExperimentConfig(pipeline="growth-fit", solution_id="eigenmode:omega=1",
                               grid_dim=1, grid_half_extent=15.0, grid_points=512,
                               strip_a=1.0, strip_b=2.0,
                               radii=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
                               out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 0
        norm_rows = (tmp_path / "norm_report.csv").read_text().strip().splitlines()
        assert norm_rows[0] == "quantity,value,family_spec,refinement_level,stability_pct"
        gamma = float(norm_rows[1].split(",")[1])
        assert gamma < 0.01
        assert "PASS" in (tmp_path / "summary.txt").read_text()

    def test_counterexample_pipeline(self, tmp_path):
        cfg = ExperimentConfig(pipeline="counterexample", solution_id="tychonoff:K=40",
                               grid_half_extent=8.0, grid_points=1024,
                               ladder_t0=0.1, ladder_ratio=0.7, ladder_floor=2e-3,
                               compact_radii=(0.5, 1.0), out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert summary.count("[PASS]") == 2
        assert (tmp_path / "compact_pairings.csv").exists()
        assert (tmp_path / "divergence.csv").exists()

    def test_recover_pipeline(self, tmp_path):
        cfg = ExperimentConfig(pipeline="recover", datum_id="dirac:x0=0",
                               grid_points=2048, out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 0
        header = (tmp_path / "recovery.csv").read_text().splitlines()[0]
        assert header == ("solution,probe_id,t_k,pairing,increment,extrapolated,"
                          "exact_if_known,error")

    def test_default_recover_rejects_ladder_below_resolution_floor(self, tmp_path, capsys):
        # default grid: dx^2 = (32/1024)^2 ~ 9.8e-4 lies above the ladder floor 6e-4
        assert main(["recover", "--out", str(tmp_path)]) == 2
        summary = (tmp_path / "summary.txt").read_text()
        assert "resolution floor 0.000976562 = 1*dx^2" in summary
        assert "ladder bottom 0.000625" in capsys.readouterr().out
        assert not (tmp_path / "recovery.csv").exists()

    def test_recover_rejects_2d_grid(self, tmp_path):
        cfg = ExperimentConfig(pipeline="recover", datum_id="sign", grid_dim=2,
                               grid_points=2048, out_dir=str(tmp_path))
        assert run_experiment(cfg).exit_code == 2
        assert "grid_dim must be 1, got 2" in (tmp_path / "summary.txt").read_text()
        assert not (tmp_path / "recovery.csv").exists()

    @pytest.mark.parametrize("pipeline,output", [("evolve", "field.csv"),
                                                 ("tent-norm", "norm_report.csv")])
    def test_datum_pipelines_reject_2d_grid(self, tmp_path, pipeline, output):
        cfg = ExperimentConfig(pipeline=pipeline, datum_id="sign", grid_dim=2,
                               grid_points=64, out_dir=str(tmp_path))
        assert run_experiment(cfg).exit_code == 2
        summary = (tmp_path / "summary.txt").read_text()
        assert f"{pipeline} evolves a 1-D initial datum, so grid_dim must be 1, got 2" in summary
        assert not (tmp_path / output).exists()

    def test_misspelled_id_parameter_exits_2(self, tmp_path):
        cfg = ExperimentConfig(pipeline="growth-fit", solution_id="eigenmode:omgea=2",
                               out_dir=str(tmp_path))
        assert run_experiment(cfg).exit_code == 2
        summary = (tmp_path / "summary.txt").read_text()
        assert "bad parameter 'omgea=2'; accepted keys: omega, dim, amp" in summary
        assert not (tmp_path / "growth_fit.csv").exists()

    @pytest.mark.parametrize("pipeline,solution_id,grid_dim,output", [
        ("growth-fit", "gaussian_kernel:t0=1,dim=2", 1, "growth_fit.csv"),
        ("homotopy", "gaussian_kernel:t0=1,dim=2", 1, "homotopy.csv"),
        ("counterexample", "tychonoff:K=40", 2, "compact_pairings.csv"),
    ])
    def test_solution_dimension_must_match_grid(self, tmp_path, pipeline, solution_id,
                                                grid_dim, output):
        cfg = ExperimentConfig(pipeline=pipeline, solution_id=solution_id, grid_dim=grid_dim,
                               grid_points=64, out_dir=str(tmp_path))
        assert run_experiment(cfg).exit_code == 2
        summary = (tmp_path / "summary.txt").read_text()
        sol_dim = 3 - grid_dim
        assert f"{pipeline} needs a solution of the grid's dimension" in summary
        assert f"is {sol_dim}-D, grid_dim is {grid_dim}" in summary
        assert not (tmp_path / output).exists()

    # A 2-D homotopy on the default box L = 16.
    _BUMP_2D = dict(pipeline="homotopy", grid_dim=2, solution_id="gaussian_kernel:t0=1,dim=2")

    # The measure-sweep counterexample configuration: the flat series on L = 8.
    _FLAT = dict(pipeline="counterexample", solution_id="tychonoff:K=40",
                 grid_half_extent=8.0, grid_points=1024, ladder_t0=0.1, ladder_ratio=0.7,
                 ladder_floor=2e-3)

    @pytest.mark.parametrize("overrides,message", [
        (dict(_FLAT, compact_radii=(), rho_values=(4.0,)),
         "compact_radii must be non-empty and positive, got ()"),
        (dict(_FLAT, compact_radii=(0.5, 0.0)), "compact_radii must be non-empty and positive"),
        (dict(_FLAT, rho_values=(4.0,)), "rho_values must be at least two strictly increasing"),
        (dict(_FLAT, rho_values=(4.0, 2.0)), "rho_values must be at least two strictly increasing"),
        (dict(pipeline="homotopy", grid_levels=0), "grid_levels must be at least 2"),
        (dict(pipeline="homotopy", grid_levels=-2), "grid_levels must be at least 2"),
        (dict(pipeline="homotopy", grid_levels=1), "grid_levels must be at least 2"),
        (dict(pipeline="homotopy", h_radius=0.0), "h_radius must be positive, got 0.0"),
        (dict(pipeline="homotopy", h_radius=-1.0), "h_radius must be positive, got -1.0"),
        (dict(pipeline="evolve", evolve_times=(0.2, 0.1)),
         "evolve_times must be non-empty, positive and strictly increasing, got (0.2, 0.1)"),
        (dict(pipeline="evolve", evolve_times=(-0.1, 0.2)),
         "evolve_times must be non-empty, positive and strictly increasing"),
        (dict(pipeline="evolve", evolve_times=()),
         "evolve_times must be non-empty, positive and strictly increasing"),
        (dict(pipeline="tent-norm", tent_radii=()), "tent_radii must be non-empty and positive"),
        (dict(pipeline="tent-norm", tent_radii=(0.5, -1.0)),
         "tent_radii must be non-empty and positive"),
        (dict(pipeline="growth-fit", radii=(0.0, 2.0, 3.0, 4.0, 5.0)), "radii must be positive"),
        (dict(pipeline="growth-fit", solution_id="eigenmode:omega=1",
              radii=(8.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),
         "radii must be strictly increasing, got (8.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)"),
        (dict(pipeline="homotopy", h_center=-20.0),
         "the homotopy bump misses the box: (h_center,) * grid_dim with h_center = -20.0 "
         "lies 4 from [-L, L]^1 with L = 16.0, not less than h_radius = 1.0"),
        (dict(_BUMP_2D, h_center=-20.0),
         "h_center = -20.0 lies 5.65685 from [-L, L]^2 with L = 16.0, not less than "
         "h_radius = 1.0"),
        (dict(_BUMP_2D, h_center=16.8),
         "h_center = 16.8 lies 1.13137 from [-L, L]^2 with L = 16.0, not less than "
         "h_radius = 1.0"),
    ], ids=["no-bumps-one-rho", "zero-bump", "one-rho", "rho-decreasing", "levels-0",
            "levels-minus-2", "levels-1", "h-radius-0", "h-radius-negative", "times-decreasing",
            "time-negative", "no-times", "no-tent-radii", "tent-radius-negative",
            "growth-radius-0", "growth-radii-unsorted", "bump-off-box-1d", "bump-off-box-2d",
            "bump-off-box-corner-2d"])
    def test_vacuous_or_disordered_config_exits_2(self, tmp_path, overrides, message):
        # each of these judged nothing and passed, or failed only at run time
        result = run_experiment(ExperimentConfig(out_dir=str(tmp_path), **overrides))
        assert result.exit_code == 2
        assert message in (tmp_path / "summary.txt").read_text()
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("overrides", [
        dict(pipeline="homotopy", h_center=-16.8), dict(pipeline="homotopy", h_center=16.99),
        dict(_BUMP_2D, h_center=-16.6)], ids=["1d-left", "1d-right", "2d-corner"])
    def test_bump_reaching_into_the_box_is_accepted(self, overrides):
        # the distance from (h_center,) * grid_dim to the box is below
        # h_radius: 0.8 and 0.99 in 1-D, 0.6 sqrt(2) in 2-D
        cli._validate_config(ExperimentConfig(**overrides))

    def test_tent_norm_pipeline(self, tmp_path):
        cfg = ExperimentConfig(pipeline="tent-norm", datum_id="sign",
                               grid_points=512, out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 0
        rows = (tmp_path / "norm_report.csv").read_text().strip().splitlines()
        assert rows[0] == "quantity,value,family_spec,refinement_level,stability_pct"
        assert any(r.startswith("bmo_inv_norm") for r in rows[1:])

    def test_evolve_pipeline(self, tmp_path):
        cfg = ExperimentConfig(pipeline="evolve", datum_id="gauss_poly:coeffs=1,sigma=1",
                               grid_points=512, grid_half_extent=16.0,
                               out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 0
        field_text = (tmp_path / "field.csv").read_text()
        assert field_text.startswith("# grid n=1")

    def test_reproducible_outputs(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(pipeline="growth-fit", solution_id="eigenmode:omega=1",
                                   grid_half_extent=15.0, grid_points=512,
                                   strip_a=1.0, strip_b=2.0,
                                   radii=(2.0, 3.0, 4.0, 5.0, 6.0),
                                   out_dir=str(tmp_path / sub))
            run_experiment(cfg)
            outs.append((tmp_path / sub / "growth_fit.csv").read_bytes())
        assert outs[0] == outs[1]


class TestMain:
    def test_cli_smoke(self, tmp_path, capsys):
        code = main(["growth-fit", "--out", str(tmp_path)])
        assert code in (0, 1)
        assert "gamma_hat" in capsys.readouterr().out

    def test_config_file_and_method_flag(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("""
[experiment]
pipeline = homotopy
[solution]
id = eigenmode:omega=1
[grid]
grid_points = 256
[homotopy]
grid_levels = 2
""")
        code = main(["homotopy", "--config", str(ini), "--out", str(tmp_path / "o"),
                     "--method", "spectral"])
        assert code == 0

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["homotopy", "--config", str(tmp_path / "nope.ini")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("grid", "grid_mode", "periodic"),
        ("operator", "mass_normalization", "true"),
    ])
    def test_removed_keys_exit_2(self, tmp_path, capsys, section, key, value):
        # every grid is periodic and every kernel has unit mass: neither is a setting
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        code = main(["growth-fit", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"unknown config key {key!r} in [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,message", [
        ("[grid]\npipeline = growth-fit\n",
         "config key 'pipeline' belongs in [experiment], not [grid]"),
        ("[datum]\nsolution_id = eigenmode\n",
         "config key 'solution_id' belongs in [solution], not [datum]"),
        ("[grid]\nid = eigenmode\n", "unknown config key 'id' in [grid]"),
        ("[solution]\nid = eigenmode\nsolution_id = exponential\n",
         "[solution] sets solution_id twice"),
        ("[DEFAULT]\nsolution_id = eigenmode\n",
         "config key 'solution_id' belongs in [solution], not [DEFAULT]"),
        ("[radii]\nradii = 1,,2\n", "[radii] radii = 1,,2: empty list item"),
        ("[radii]\nradii = 2,3,4,5,6,\n", "[radii] radii = 2,3,4,5,6,: empty list item"),
        ("[evolve]\nevolve_times = ,0.1\n", "[evolve] evolve_times = ,0.1: empty list item"),
        ("[grid]\ngrid_points = many\n", "[grid] grid_points = many: invalid literal"),
    ], ids=["key-in-other-section", "solution-key-in-datum", "id-outside-its-sections",
            "field-set-twice", "default-section", "empty-middle-item", "empty-last-item",
            "empty-first-item", "bad-number"])
    def test_ini_boundary_exits_2(self, tmp_path, capsys, text, message):
        # a key outside its own section, a field set twice, an empty list item
        # or a bad number: each is a config error naming the section and key
        ini = tmp_path / "exp.ini"
        ini.write_text(text)
        code = main(["growth-fit", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ini_empty_list_is_empty(self):
        assert config_from_ini("[radii]\nradii =\n").radii == ()

    def test_readme_config_example_runs(self, tmp_path):
        # the README's INI example names only keys that exist, and it runs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert len(examples) == 1
        cfg = config_from_ini(examples[0])
        assert cfg.pipeline == "growth-fit"
        result = run_experiment(replace(cfg, out_dir=str(tmp_path)))
        assert result.exit_code == 0, result.summary_lines


class TestEmitPlots:
    def test_growth_plot_has_reference_slope(self):
        script = emit_plots([("growth_fit.csv",
                              "radius,z,l2,log_l2,fit_log_l2\n2,4,1.0,0.0,0.1\n3,9,1.5,0.4,0.5\n")])
        assert "slope 1/4" in script
        assert "$data0" in script

    def test_multiplot_ordering(self):
        a = ("a_homotopy.csv",
             "solution,s,t,h_id,grid_level,lhs,rhs,residual\nx,0.5,1,h,0,1,1,0.1\n")
        b = ("b_growth.csv", "radius,z,l2,log_l2,fit_log_l2\n2,4,1,0,0\n")
        script = emit_plots([b, a])  # order by filename, not argument order
        assert "multiplot" in script
        assert script.index("a_homotopy") < script.index("b_growth")

    @staticmethod
    def _data_block(script: str, index: int = 0) -> str:
        return script.split(f"$data{index} << EOD\n", 1)[1].split("\nEOD\n", 1)[0]

    @pytest.mark.parametrize("name,text", [
        ("field.csv", field_to_csv(SpaceTimeField(
            SpatialGrid.make(1, 8.0, 64), [1e-3, 1 / 3],
            np.array([np.sin(np.arange(64.0)) * 1e-300, -np.exp(np.arange(64.0))])))),
        ("growth_fit.csv", "radius,z,l2,log_l2,fit_log_l2\n2,4,1.5e-07,-15.7,-0.0\n"
                           "3,9,2.25,0.81093021621632877,0.8\n"),
    ], ids=["field", "growth-fit"])
    def test_numeric_block_equals_per_row_replacement(self, name, text):
        # a block with no bracket is inlined by one replace over the whole
        # block; it must equal the per-row replacement it stands for
        rows = text.strip().splitlines()[1:]
        block = self._data_block(emit_plots([(name, text)]))
        assert block == "\n".join(r.replace(",", " ") for r in rows)

    def test_bracketed_labels_stay_one_column(self):
        block = self._data_block(
            emit_plots([("labels.csv", "name,value,tag\nf(a,g(b,c)),1,[x,y]\nplain,2,(p)\n")]))
        assert block.splitlines() == ["f(a,g(b,c)) 1 [x,y]", "plain 2 (p)"]

    def test_script_matches_csv_files_written(self, tmp_path):
        # the reporter builds plots.gp from the texts it wrote; they must
        # give the same script as the CSV files read back from disk
        cfg = ExperimentConfig(pipeline="growth-fit", solution_id="eigenmode:omega=1",
                               grid_half_extent=15.0, grid_points=512,
                               strip_a=1.0, strip_b=2.0, radii=(2.0, 3.0, 4.0, 5.0, 6.0),
                               out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 0
        csvs = [(p.name, p.read_text()) for p in tmp_path.glob("*.csv")]
        assert csvs
        assert (tmp_path / "plots.gp").read_text() == emit_plots(csvs)

    @pytest.mark.parametrize("overrides", [
        {},
        dict(solution_id="gaussian_kernel:t0=1,dim=2", grid_dim=2, grid_half_extent=12.0,
             grid_points=64, grid_levels=2, method="spectral_multiplier"),
    ], ids=["default-1d", "2d"])
    def test_homotopy_plot_columns(self, tmp_path, overrides):
        # 'using 5:8' must read grid_level and residual although the solution
        # and probe labels carry commas
        cfg = ExperimentConfig(pipeline="homotopy", out_dir=str(tmp_path), **overrides)
        assert run_experiment(cfg).exit_code == 0
        csv_rows = (tmp_path / "homotopy.csv").read_text().strip().splitlines()[1:]
        script = (tmp_path / "plots.gp").read_text()
        assert "using 5:8" in script
        plot_rows = self._data_block(script).splitlines()
        assert len(plot_rows) == len(csv_rows) > 0
        for plot_row, csv_row in zip(plot_rows, csv_rows):
            cols = plot_row.split()
            assert len(cols) == 8 and "," in cols[3]
            _, grid_level, _, _, residual = csv_row.rsplit(",", 4)
            assert (cols[4], cols[7]) == (grid_level, residual)


class TestHomotopyScheduling:
    """Grid levels run on the calling thread in level order; the first failing
    level ends the run, and every output byte repeats from run to run."""

    @staticmethod
    def _config(tmp_path):
        return ExperimentConfig(pipeline="homotopy", grid_points=256, grid_levels=3,
                                out_dir=str(tmp_path))

    def test_levels_run_in_level_order(self, tmp_path, monkeypatch):
        seen = []
        residual = cli.homotopy_residual

        def recorded(*args, grid, **kwargs):
            seen.append(grid.points_per_axis)
            return residual(*args, grid=grid, **kwargs)

        monkeypatch.setattr(cli, "homotopy_residual", recorded)
        assert run_experiment(self._config(tmp_path)).exit_code == 0
        assert seen == [256, 512, 1024]
        rows = (tmp_path / "homotopy.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[-4] for row in rows] == ["0", "1", "2"]

    @pytest.mark.parametrize("failing_levels", [(0, 2), (1, 2), (2,)],
                             ids=["first-and-last", "middle-and-last", "last"])
    def test_coarsest_failure_is_reported(self, tmp_path, monkeypatch, failing_levels):
        seen = []
        residual = cli.homotopy_residual

        def failing(*args, grid_level, **kwargs):
            seen.append(grid_level)
            if grid_level in failing_levels:
                raise DomainTooSmallError(f"level {grid_level} fails")
            return residual(*args, grid_level=grid_level, **kwargs)

        monkeypatch.setattr(cli, "homotopy_residual", failing)
        result = run_experiment(self._config(tmp_path))
        coarsest = failing_levels[0]
        assert result.exit_code == 1
        assert result.summary_lines == [
            f"[FAIL] pipeline homotopy aborted: level {coarsest} fails"]
        assert seen == list(range(coarsest + 1))

    def test_outputs_repeat_byte_for_byte(self, tmp_path):
        outputs = []
        for run in ("first", "second"):
            result = run_experiment(self._config(tmp_path / run))
            assert result.exit_code == 0
            outputs.append({Path(f).name: Path(f).read_bytes() for f in result.files})
        assert sorted(outputs[0]) == ["homotopy.csv", "plots.gp", "summary.txt"]
        assert outputs[0] == outputs[1]

    def test_starts_no_thread(self, tmp_path, monkeypatch):
        import threading

        def refuse(self):
            raise AssertionError(f"the homotopy pipeline started thread {self.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["homotopy", "--out", str(tmp_path)]) == 0

    def test_former_thread_variable_changes_nothing(self, tmp_path, monkeypatch):
        # CALORIC_THREADS once capped the level pool and rejected bad values
        # with exit 2; now no value of it changes the exit code or any byte
        outputs = []
        for threads in (None, "abc", "-2"):
            if threads is None:
                monkeypatch.delenv("CALORIC_THREADS", raising=False)
            else:
                monkeypatch.setenv("CALORIC_THREADS", threads)
            result = run_experiment(self._config(tmp_path / str(threads)))
            assert result.exit_code == 0
            outputs.append({Path(f).name: Path(f).read_bytes() for f in result.files})
        assert outputs[0] == outputs[1] == outputs[2]
