"""Appendix B — annotation quality.

Paper: three annotators labelled 200 annotated clusters; Fleiss'
κ = 0.67 and 89% majority-vote accuracy.  Here the pipeline's exact
annotation accuracy comes from the generator's ground truth, and the
three-annotator protocol is replayed with simulated annotators (at the
default confusion rate and with perfect annotators).  The tier-1 suite
checks the same protocol on the small test world
(``tests/test_annotation_evaluation.py``).
"""

import numpy as np
import pytest

from benchmarks.conftest import once
from repro.annotation.evaluation import annotation_accuracy, simulate_annotator_study
from repro.utils.tables import format_table


def test_appendix_b_annotation_quality(
    benchmark, bench_world, bench_pipeline, write_output
):
    def run():
        return (
            annotation_accuracy(bench_world, bench_pipeline),
            simulate_annotator_study(
                bench_world, bench_pipeline, np.random.default_rng(7)
            ),
            simulate_annotator_study(
                bench_world, bench_pipeline, np.random.default_rng(8),
                error_rate=0.0,
            ),
        )

    accuracy, study, perfect = once(benchmark, run)
    text = format_table(
        [
            ["exact annotation accuracy", "89% (estimated)",
             f"{100 * accuracy:.1f}%"],
            ["clusters rated", 200, study.n_clusters],
            ["annotators", 3, study.n_annotators],
            ["Fleiss' kappa", "0.67", f"{study.fleiss_kappa:.3f}"],
            ["majority accuracy", "89%",
             f"{100 * study.majority_accuracy:.1f}%"],
            ["kappa, perfect annotators", "-", f"{perfect.fleiss_kappa:.3f}"],
            ["majority accuracy, perfect annotators", "-",
             f"{100 * perfect.majority_accuracy:.1f}%"],
        ],
        headers=["", "paper", "measured"],
        title="Appendix B: annotation quality (simulated annotators)",
    )
    write_output("appendix_b_annotation", text)

    # The synthetic KYM is cleaner than the real one: the pipeline's
    # exact accuracy is at least in the region of the paper's estimate.
    assert accuracy >= 0.75
    assert study.n_annotators == 3
    assert 0 < study.n_clusters <= 200
    # The kappa paradox: the majority is right far more often than the
    # paper's 89%, yet kappa sits below the paper's 0.67, because the
    # pipeline errs so rarely that almost every rating is "correct" and
    # Fleiss' kappa shrinks under such skewed marginals.
    assert study.majority_accuracy >= 0.89
    assert study.fleiss_kappa < 0.67
    # Perfect annotators agree exactly, and their majority is the
    # pipeline's true accuracy over the sampled clusters.
    assert perfect.fleiss_kappa == pytest.approx(1.0)
    assert perfect.majority_accuracy >= 0.7
