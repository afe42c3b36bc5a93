"""End-to-end integration tests: miniature versions of the paper's
experiments wired through the public API."""

import numpy as np
import pytest

from repro.analysis.kmeans import KMeans, cluster_purity
from repro.analysis.stats import distributions_match
from repro.core import iboxnet
from repro.core.abtest import ensemble_test, instance_test
from repro.trace.metrics import summarize


class TestEnsemblePipeline:
    @pytest.fixture(scope="class")
    def ensemble(self, small_dataset):
        return ensemble_test(small_dataset, duration=12.0)

    def test_one_model_per_control_run(self, ensemble, small_dataset):
        assert len(ensemble.models) == len(
            small_dataset.by_protocol("cubic")
        )

    def test_simulated_summaries_cover_both_protocols(self, ensemble):
        assert len(ensemble.sim_summaries["cubic"]) == 3
        assert len(ensemble.sim_summaries["vegas"]) == 3

    def test_counterfactual_ordering_preserved(self, ensemble):
        """The headline sanity property: in simulation as in truth, Vegas
        is the low-delay protocol and Cubic the high-throughput one."""
        def med(table, protocol, getter):
            return np.nanmedian([getter(s) for s in table[protocol]])

        for table in (ensemble.gt_summaries, ensemble.sim_summaries):
            assert med(table, "vegas", lambda s: s.p95_delay_ms) < med(
                table, "cubic", lambda s: s.p95_delay_ms
            )

    def test_format_table_renders(self, ensemble):
        text = ensemble.format_table()
        assert "cubic GT" in text and "vegas iBoxNet" in text


class TestInstancePipeline:
    def test_miniature_instance_test_clusters_perfectly(self):
        result = instance_test(
            runs_per_instance=2, duration=40.0,
            ct_offsets=(0.0, 25.0), ct_duration=8.0, base_seed=1,
        )
        assert result.purity == 1.0
        assert len(result.models) == 2
        assert result.features.shape == (8, 4)


class TestCounterfactualAccuracy:
    def test_vegas_prediction_close_to_truth(self, small_dataset):
        """Per-path check: iBoxNet trained on Cubic predicts Vegas's
        summary metrics within a factor of ~2 on every path."""
        pairs = small_dataset.paired_runs("cubic", "vegas")
        for control, treatment in pairs:
            model = iboxnet.fit(control.trace)
            predicted = summarize(
                model.simulate("vegas", duration=12.0, seed=control.seed)
            )
            actual = summarize(treatment.trace)
            assert predicted.mean_rate_mbps == pytest.approx(
                actual.mean_rate_mbps, rel=1.0
            )
            if np.isfinite(actual.p95_delay_ms):
                assert predicted.p95_delay_ms == pytest.approx(
                    actual.p95_delay_ms, rel=1.5
                )


class TestPublicAPI:
    def test_top_level_imports(self):
        # The package re-exports nothing; subpackages and their modules
        # are reached by importing them.
        import repro
        import repro.core.iboxnet
        from repro.experiments import fig2_ensemble

        assert repro.__version__
        assert hasattr(repro.core, "iboxnet")
        assert repro.experiments.fig2_ensemble is fig2_ensemble

    def test_quickstart_docstring_flow(self):
        from repro.core import iboxnet as ibn
        from repro.datasets import pantheon

        run = pantheon.generate_run(seed=1, protocol="cubic", duration=6.0)
        model = ibn.fit(run.trace)
        predicted = model.simulate("vegas", duration=6.0, seed=2)
        assert predicted.summary().packets_sent > 0
