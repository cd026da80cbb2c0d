"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out.strip()


class TestCount:
    def test_count(self, capsys):
        out = run(capsys, "count", "forall x. exists y. R(x, y)", "4")
        assert out == str((2 ** 4 - 1) ** 4)

    def test_method_pinning(self, capsys):
        out = run(capsys, "count", "exists x. P(x)", "3", "--method", "lineage")
        assert out == "7"

    def test_deeply_nested_formula_is_bad_input(self, capsys):
        deep = "(" * 200 + "P(x)" + ")" * 200
        assert main(["count", "exists x. " + deep, "2"]) == 3
        assert "nested too deeply" in capsys.readouterr().err


class TestWfomc:
    def test_default_weights(self, capsys):
        out = run(capsys, "wfomc", "exists y. S(y)", "3")
        assert out == "7"

    def test_weight_option(self, capsys):
        out = run(capsys, "wfomc", "exists y. S(y)", "4", "--weight", "S=1/2,1")
        assert out == "65/16"  # (3/2)^4 - 1

    def test_unknown_predicate_rejected(self, capsys):
        assert main(["wfomc", "exists y. S(y)", "2",
                     "--weight", "T=1,1"]) == 3
        assert "does not occur" in capsys.readouterr().err

    def test_malformed_weight_rejected(self):
        with pytest.raises(SystemExit):
            main(["wfomc", "exists y. S(y)", "2", "--weight", "S=oops"])


class TestProbability:
    def test_probability(self, capsys):
        out = run(capsys, "probability", "exists x. P(x)", "3")
        assert out.startswith("7/8")


class TestEngineKnobs:
    FORMULA = "forall x, y. (R(x) | S(x, y) | T(y))"

    def test_no_learn_and_branching_leave_the_count_unchanged(self, capsys):
        default = run(capsys, "count", self.FORMULA, "2", "--method", "lineage")
        assert default == "161"
        for flags in (["--no-learn"], ["--branching", "moms"],
                      ["--max-learned", "8"]):
            out = run(capsys, "count", self.FORMULA, "2", "--method",
                      "lineage", *flags)
            assert out == default

    def test_stats_subcommand_prints_breakdown(self, capsys):
        code = main(["stats", self.FORMULA, "2", "--method", "lineage"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("result  161")
        for section in ("engine", "solver caches"):
            assert "\n{}\n".format(section) in "\n" + captured.out
        for counter in ("conflicts", "learned_clauses", "backjumps",
                        "db_reductions", "fo2_structures", "lineages"):
            assert counter in captured.out

    def test_stats_subcommand_accepts_weights(self, capsys):
        code = main(["stats", "exists y. S(y)", "4", "--weight", "S=1/2,1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("result  65/16")


class TestSpectrum:
    def test_spectrum(self, capsys):
        out = run(capsys, "spectrum", "exists x, y. x != y", "4")
        assert out == "2 3 4"

    def test_empty_spectrum(self, capsys):
        out = run(capsys, "spectrum", "(exists x. P(x)) & (forall x. ~P(x))", "3")
        assert out == "(empty)"


class TestMu:
    def test_mu(self, capsys):
        out = run(capsys, "mu", "exists x. P(x)", "2")
        assert out.startswith("3/4")


class TestStatsSubcommand:
    def test_exit_code_and_result_line(self, capsys):
        code = main(["stats", "exists x. P(x)", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("result  3")

    def test_includes_cnf_conversion_cache(self, capsys):
        out = run(capsys, "stats", "forall x, y. (R(x) | S(x, y))", "2",
                  "--method", "lineage")
        assert "cnf_conversions" in out
        assert "polynomials" in out

    def test_rejects_missing_arguments(self):
        with pytest.raises(SystemExit):
            main(["stats"])


class TestCacheSubcommand:
    def test_path_prints_resolved_directory(self, capsys, tmp_path):
        out = run(capsys, "cache", "path", "--cache-dir", str(tmp_path))
        assert out == str(tmp_path)

    def test_path_honors_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
        out = run(capsys, "cache", "path")
        assert out == str(tmp_path / "from-env")

    def test_stats_on_empty_cache(self, capsys, tmp_path):
        out = run(capsys, "cache", "stats", "--cache-dir", str(tmp_path))
        assert "entries  0" in out
        assert "no store file" in out

    def test_clear_on_empty_cache(self, capsys, tmp_path):
        out = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert out.startswith("cleared 0 entries")

    def test_persisted_run_then_stats_then_clear(self, capsys, tmp_path):
        # Cold in-memory caches: a result-cache hit from an earlier test
        # would short-circuit the run before anything reaches the disk.
        from repro.grounding.lineage import clear_grounding_caches
        from repro.propositional.counter import reset_engine
        from repro.wfomc.solver import clear_solver_caches

        reset_engine()
        clear_grounding_caches()
        clear_solver_caches()
        cache_dir = str(tmp_path / "cli-store")
        out = run(capsys, "count", "forall x, y. (R(x) | S(x, y) | T(y))",
                  "2", "--method", "lineage", "--persist",
                  "--cache-dir", cache_dir)
        assert out == "161"

        out = run(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert "path     " in out
        assert "components" in out
        assert "cumulative (all processes)" in out
        for counter in ("hits", "misses", "writes"):
            assert counter in out
        entries = [line for line in out.splitlines()
                   if line.startswith("entries  ")]
        assert entries and int(entries[0].split()[1]) > 0

        out = run(capsys, "cache", "clear", "--cache-dir", cache_dir)
        assert out.startswith("cleared ")
        assert not out.startswith("cleared 0 ")

        out = run(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert "entries  0" in out

    def test_persist_does_not_change_the_count(self, capsys, tmp_path):
        formula = "forall x, y. (R(x) | S(x, y) | T(y))"
        plain = run(capsys, "count", formula, "2", "--method", "lineage")
        persisted = run(capsys, "count", formula, "2", "--method", "lineage",
                        "--persist", "--cache-dir", str(tmp_path / "p"))
        warm = run(capsys, "count", formula, "2", "--method", "lineage",
                   "--persist", "--cache-dir", str(tmp_path / "p"))
        assert plain == persisted == warm == "161"

    def test_requires_cache_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])

    def test_rejects_unknown_cache_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache", "bogus"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCompileSubcommand:
    def test_compile_reports_circuit_shape_and_value(self, capsys):
        out = run(capsys, "compile", "forall x. exists y. R(x, y)", "4")
        assert "kind    fo2" in out
        assert "nodes" in out and "depth" in out
        assert out.strip().endswith("(at the given weights)")
        assert str((2 ** 4 - 1) ** 4) in out

    def test_compile_lineage_method_and_weights(self, capsys):
        out = run(capsys, "compile", "exists y. S(y)", "3",
                  "--method", "lineage", "--weight", "S=1/2,1")
        assert "kind    lineage" in out
        # 2^3 total mass minus the all-absent world at (1/2, 1) weights.
        assert "19/8" in out

    def test_compile_persist_writes_the_circuits_namespace(self, capsys,
                                                           tmp_path):
        cache_dir = str(tmp_path / "cli-circ")
        run(capsys, "compile", "exists x. P(x)", "2", "--persist",
            "--cache-dir", cache_dir)
        out = run(capsys, "cache", "stats", "--cache-dir", cache_dir)
        assert "circuits" in out


class TestSweepSubcommand:
    ARGS = ("sweep", "forall x, y. (R(x) | S(x, y))", "3",
            "--vary", "R", "--values", "1/2,1,2")

    def test_sweep_prints_one_line_per_value(self, capsys):
        out = run(capsys, *self.ARGS)
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].split("\t") == ["1", "729"]

    def test_compiled_sweep_is_identical(self, capsys):
        direct = run(capsys, *self.ARGS)
        compiled = run(capsys, *self.ARGS, "--compile")
        assert compiled == direct

    def test_unknown_vary_predicate_rejected(self, capsys):
        assert main(["sweep", "exists x. P(x)", "2", "--vary", "Q",
                     "--values", "1,2"]) == 3
        assert "does not occur" in capsys.readouterr().err

    def test_malformed_values_rejected(self, capsys):
        assert main(["sweep", "exists x. P(x)", "2", "--vary", "P",
                     "--values", "1,zebra"]) == 3
        assert "bad --values" in capsys.readouterr().err


class TestPhaseSavingFlag:
    def test_no_phase_saving_leaves_the_count_unchanged(self, capsys):
        default = run(capsys, "count", "forall x, y. (R(x) | S(x, y))", "3")
        ablated = run(capsys, "count", "forall x, y. (R(x) | S(x, y))", "3",
                      "--no-phase-saving")
        assert ablated == default == "729"


class TestBatchCompileFlag:
    def test_batch_compile_matches_direct(self, capsys):
        argv = ("batch", "forall x. exists y. R(x, y)", "1", "2", "3")
        direct = run(capsys, *argv)
        compiled = run(capsys, *argv, "--compile")
        assert compiled == direct


class TestStatsIncludesCompile:
    def test_stats_prints_compile_section(self, capsys):
        out = run(capsys, "stats", "exists x. P(x)", "2")
        assert "compile" in out
        assert "trace_templates" in out


class TestServeFlags:
    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "1e400", "soon"])
    def test_bad_default_deadline_is_a_usage_error(self, capsys, value):
        # Rejected while parsing, before any daemon starts: a negative
        # default would answer 400 about a field the client never sent,
        # and a NaN one would 504 slow requests at once.  Parsing alone
        # is driven, so a regression fails here instead of serving.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["serve", "--default-deadline-ms", value])
        assert exc.value.code == 2
        assert "finite, non-negative" in capsys.readouterr().err

    def test_default_deadline_accepts_zero_and_fractions(self):
        parser = build_parser()
        for text, expected in (("0", 0.0), ("250.5", 250.5)):
            args = parser.parse_args(["serve", "--default-deadline-ms", text])
            assert args.default_deadline_ms == expected
