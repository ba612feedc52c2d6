"""Tests for the evaluation harness itself (repro.bench)."""

import pytest

from repro.bench import (
    ABLATIONS,
    FIG10_TABLE,
    FIGURE_SWEEPS,
    default_sizes,
    make_engine,
    run_fig10_table,
    run_figure_sweep,
)
from repro.bench.engines import ENGINE_REGISTRY
from repro.bench.experiments import Fig10Table, FigureSweep, fig10_table
from repro.bench.runner import (
    cached_dblp,
    cached_document,
    run_ablation,
    time_once,
)
from repro.compiler.improved import TranslationOptions
from repro.workloads.querygen import FIG10_QUERIES


class TestEngineRegistry:
    def test_all_engines_present(self):
        assert set(ENGINE_REGISTRY) == {
            "natix", "natix-canonical", "naive", "memo",
        }

    def test_runners_expose_stats_columns(self):
        document = cached_document((100, 4, 3))
        runner = make_engine("natix")("/xdoc/*/@id")
        runner(document.root)
        runner(document.root)
        columns = runner.stats_columns()
        assert columns["cache_misses"] == 1
        assert columns["operator_next_calls"] > 0
        # Interpreters have no plan, hence no columns.
        assert make_engine("naive")("//*").stats_columns() == {}

    @pytest.mark.parametrize("name", sorted(ENGINE_REGISTRY))
    def test_engines_count_results(self, name):
        document = cached_document((100, 4, 3))
        runner = make_engine(name)("/xdoc/*/@id")
        assert runner(document.root) == 4

    def test_custom_options_engine(self):
        document = cached_document((100, 4, 3))
        runner = make_engine(
            "custom", TranslationOptions(optimize=True)
        )("count(//*)")
        assert runner(document.root) == 1

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            make_engine("sloth")

    def test_all_engines_agree_on_counts(self):
        document = cached_document((150, 4, 3))
        query = "/child::xdoc/descendant::*/ancestor::*/@id"
        counts = {
            name: make_engine(name)(query)(document.root)
            for name in ENGINE_REGISTRY
        }
        assert len(set(counts.values())) == 1, counts


class TestExperimentDefinitions:
    def test_four_figures_defined(self):
        assert set(FIGURE_SWEEPS) == {"fig6", "fig7", "fig8", "fig9"}

    def test_figure_queries_match_fig5(self):
        from repro.workloads.querygen import FIG5_QUERIES

        assert [s.query for s in FIGURE_SWEEPS.values()] == list(
            FIG5_QUERIES
        )

    def test_fig10_matches_paper_queries(self):
        assert list(FIG10_TABLE.queries) == list(FIG10_QUERIES)

    def test_default_sizes_scaled(self):
        sizes = default_sizes(scale="scaled")
        assert all(fanout == 6 and depth == 4 for _, fanout, depth in sizes)

    def test_full_sizes_match_paper(self):
        sizes = default_sizes(scale="full")
        assert (2000, 6, 4) in sizes
        assert (80000, 10, 5) in sizes
        assert len(sizes) == 8

    def test_ablations_cover_paper_devices(self):
        assert set(ABLATIONS) >= {
            "dupelim", "stacked", "memox", "matmap", "nvm", "smartagg",
        }


class TestRunner:
    def test_document_cache_reuses(self):
        first = cached_document((80, 4, 3))
        second = cached_document((80, 4, 3))
        assert first is second

    def test_dblp_cache(self):
        assert cached_dblp(50) is cached_dblp(50)

    def test_time_once(self):
        document = cached_document((80, 4, 3))
        runner = make_engine("natix")("count(//*)")
        seconds, count = time_once(runner, document.root)
        assert seconds >= 0 and count == 1

    def test_figure_sweep_smoke(self):
        sweep = FigureSweep(
            figure="figX", query="/child::xdoc/child::*/attribute::id",
            description="smoke", engines=("natix", "naive"),
            engine_size_caps={"naive": 60},
        )
        result = run_figure_sweep(sweep, [(50, 4, 3), (100, 4, 3)])
        assert set(result.series) == {"natix", "naive"}
        natix_points = result.series["natix"]
        assert all(p.seconds is not None for p in natix_points)
        # The cap turns the second naive point into a gap.
        naive_points = result.series["naive"]
        assert naive_points[0].seconds is not None
        assert naive_points[1].seconds is None
        rendered = result.render()
        assert "figX" in rendered and "—" in rendered

    def test_fig10_smoke(self):
        table = Fig10Table(FIG10_QUERIES[:3], publications=60)
        result = run_fig10_table(table)
        assert len(result.rows) == 3
        assert "query" in result.render()

    def test_ablation_smoke(self):
        ablation = ABLATIONS["stacked"]
        timings = run_ablation(ablation)
        assert set(timings) == set(ablation.variants)
        assert all(value >= 0 for value in timings.values())
