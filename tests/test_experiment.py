import logging
import math

import numpy as np
import pytest

from termforge.clustering import Geometry, KmeansConfig, affinity_propagation, kmeans
from termforge import experiment
from termforge.evaluation import GoldStandard
from termforge.experiment import (
    PipelineConfig,
    SweepConfig,
    SweepResult,
    SweepRow,
    derive_seed,
    run_sweep,
    select_k,
)
from termforge.matrices import NP_VPC
from util import make_rep

# ------------------------------------------------------------------- seeds


def test_derive_seed_is_stable_and_frozen():
    # sha256 of "0:NP_VPC:2:0", first 8 bytes little-endian; platform-free
    assert derive_seed(0, "NP_VPC", 2, 0) == 7434500639385176304
    assert derive_seed(0, "NP_VPC", 2, 0) == derive_seed(0, "NP_VPC", 2, 0)


def test_derive_seed_separates_contexts():
    seeds = {derive_seed(0, "NP_VPC", k, r) for k in range(5) for r in range(5)}
    assert len(seeds) == 25
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")
    assert derive_seed(0, "x") != derive_seed(1, "x")


# ------------------------------------------------------------------ config


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="2 <= k_min <= k_max"):
        SweepConfig(k_min=1)
    with pytest.raises(ValueError, match="2 <= k_min <= k_max"):
        SweepConfig(k_min=5, k_max=4)
    with pytest.raises(ValueError, match="repetitions"):
        SweepConfig(repetitions=0)
    with pytest.raises(ValueError, match="unknown representations"):
        SweepConfig(representations=("NP_VPC", "bogus"))
    for sigmas in ({"sigma1": -1.0}, {"sigma1": math.nan}, {"sigma2": math.nan}):
        with pytest.raises(ValueError, match="thresholds must be non-negative"):
            SweepConfig(**sigmas)


def test_pipeline_config_validation():
    with pytest.raises(ValueError, match="nmf_rank must be >= 1, got 0"):
        PipelineConfig(nmf_rank=0)
    with pytest.raises(ValueError, match="nmf_max_iter must be >= 1, got 0"):
        PipelineConfig(nmf_max_iter=0)
    for tol in (-1e-5, math.nan):
        with pytest.raises(ValueError, match="nmf_tol must be >= 0"):
            PipelineConfig(nmf_tol=tol)
    # the w2v fields are checked by the SkipgramConfig they build
    with pytest.raises(ValueError, match="dim, window, negatives and epochs"):
        PipelineConfig(w2v_dim=0)
    with pytest.raises(ValueError, match="min_count"):
        PipelineConfig(w2v_min_count=0)
    config = PipelineConfig(sweep=SweepConfig(master_seed=3), w2v_dim=8)
    assert config.skipgram_config().dim == 8
    assert config.skipgram_config().seed == derive_seed(3, "w2v")


# ------------------------------------------------------------------ sweeps


def sweep_rep(n=8, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return make_rep(rng.random((n, dim)) + 0.05,
                    keys=tuple(f"t{i}" for i in range(n)))


def sweep_gold(n=8):
    return GoldStandard(mapping={f"t{i}": f"L{i % 3}" for i in range(n)})


def small_config(**kw):
    defaults = dict(k_min=2, k_max=4, repetitions=3, master_seed=0)
    defaults.update(kw)
    return SweepConfig(**defaults)


def test_run_sweep_shape_and_grid():
    result = run_sweep(Geometry(sweep_rep()), sweep_gold(), small_config())
    assert result.representation == NP_VPC
    assert [row.k for row in result.rows] == [2, 3, 4]
    assert len(result.cells) == 9
    assert [(c.k, c.repetition) for c in result.cells] == [
        (k, r) for k in (2, 3, 4) for r in range(3)]
    assert result.warnings == ()
    for cell in result.cells:
        assert cell.seed == derive_seed(0, cell.k, cell.repetition)


def test_run_sweep_deterministic():
    a = run_sweep(Geometry(sweep_rep()), sweep_gold(), small_config())
    b = run_sweep(Geometry(sweep_rep()), sweep_gold(), small_config())
    assert a == b


def test_run_sweep_means_recompute_from_cells():
    result = run_sweep(Geometry(sweep_rep()), sweep_gold(), small_config())
    for row in result.rows:
        batch = [c for c in result.cells if c.k == row.k]
        purities = [c.purity for c in batch]
        assert row.purity == pytest.approx(sum(purities) / len(purities))
        finite_dunns = [c.dunn2 for c in batch if math.isfinite(c.dunn2)]
        if finite_dunns:
            assert row.dunn2 == pytest.approx(sum(finite_dunns) / len(finite_dunns))
        else:
            assert row.dunn2 is None


def test_mean_is_over_the_finite_values_and_inf_only_when_all_are():
    assert experiment._mean([1.0, math.inf, None, 2.0]) == 1.5
    assert experiment._mean([None, math.inf, math.inf]) == math.inf
    assert experiment._mean([None, None]) is None


def test_run_sweep_mean_dunn2_of_an_all_infinite_k_is_inf(caplog):
    # k = 5 on 5 distinct rows gives every row a cluster of its own, whose
    # diameter is 0, so every cell's Dunn2 is +inf
    with caplog.at_level(logging.INFO, logger="termforge.experiment"):
        result = run_sweep(Geometry(sweep_rep(n=5)), sweep_gold(5),
                           small_config(k_min=4, k_max=5, repetitions=2))
    assert [cell.dunn2 for cell in result.cells if cell.k == 5] == [math.inf, math.inf]
    assert result.rows[-1] == SweepRow(k=5, purity=1.0, ari=0.0, dunn2=math.inf,
                                       silhouette=0.0)
    assert "k=5: 2 dunn2 value(s) are +inf" in caplog.text
    assert "excluded" not in caplog.text


def test_run_sweep_clips_k_max_with_warning():
    result = run_sweep(Geometry(sweep_rep(n=5)), sweep_gold(5),
                       small_config(k_max=50, repetitions=1))
    assert [row.k for row in result.rows] == [2, 3, 4, 5]
    assert result.warnings == ("k_max 50 clipped to 5 (only 5 distinct rows)",)


def test_run_sweep_without_gold_leaves_external_columns_none():
    result = run_sweep(Geometry(sweep_rep()), None, small_config(repetitions=1))
    for cell in result.cells:
        assert cell.purity is None and cell.ari is None
        assert cell.silhouette is not None


def test_run_sweep_too_few_distinct_rows():
    rep = make_rep([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # 2 distinct
    with pytest.raises(ValueError, match="cannot sweep k >= 3 with only 2"):
        run_sweep(Geometry(rep), None, small_config(k_min=3, k_max=4))


def test_every_algorithm_names_a_repeated_key():
    # the first "a" sits alone and the second with "b": a key -> id dict
    # keeps one id for "a", so a cluster would seem to vanish
    rep = make_rep([[0.0, 1.0], [1.0, 0.0], [1.0, 0.1]], keys=("a", "b", "a"))
    for run in (lambda: kmeans(Geometry(rep), KmeansConfig(k=2)),
                lambda: affinity_propagation(Geometry(rep)),
                lambda: run_sweep(Geometry(rep), None, small_config(k_min=2, k_max=3))):
        with pytest.raises(ValueError, match=r"^repeated labels \['a'\]$"):
            run()


def test_run_sweep_disjoint_gold_fails_early():
    gold = GoldStandard(mapping={"zzz": "L"})
    with pytest.raises(ValueError, match="no clustered term appears"):
        run_sweep(Geometry(sweep_rep()), gold, small_config())


# ---------------------------------------------------------------- select_k


def curve_result(silhouettes, k_min=2):
    """SweepResult whose silhouette curve is `silhouettes`; purity and ARI
    run the other way, so a rule that read them would pick another k."""
    n = len(silhouettes)
    rows = tuple(
        SweepRow(k=k_min + t, purity=(n - t) / n, ari=(n - t) / n, dunn2=None,
                 silhouette=s)
        for t, s in enumerate(silhouettes))
    return SweepResult(representation=NP_VPC, rows=rows, cells=(), warnings=())


def test_select_k_interior_maximum():
    assert select_k(curve_result([0.2, 0.9, 0.5, 0.8])) == 3


def test_select_k_rising_curve_takes_k_max():
    assert select_k(curve_result([0.1, 0.2, 0.3, 0.4])) == 5


def test_select_k_global_tie_takes_smallest_k():
    assert select_k(curve_result([0.3, 0.9, 0.1, 0.9])) == 3
    assert select_k(curve_result([0.4, 0.4, 0.4])) == 2


def test_select_k_plateau_counts_at_its_first_k():
    assert select_k(curve_result([0.1, 0.8, 0.8, 0.1])) == 3
    # a plateau at k_min is selected too: no rule asks for a rise before it
    assert select_k(curve_result([0.8, 0.8, 0.1])) == 2


def test_select_k_skips_undefined_silhouettes():
    assert select_k(curve_result([None, 0.2, None, 0.6, 0.5])) == 5
    assert select_k(curve_result([-0.3, None, -0.1])) == 4


def test_select_k_with_no_defined_silhouette_names_the_representation():
    with pytest.raises(ValueError, match=r"^NP_VPC: no k has a defined silhouette$"):
        select_k(curve_result([None, None]))


def test_select_k_one_row_and_empty():
    assert select_k(curve_result([0.5], k_min=7)) == 7
    assert select_k(curve_result([-0.5])) == 2
    with pytest.raises(ValueError, match="no k has a defined silhouette"):
        select_k(curve_result([]))
