import math

import numpy as np
import pytest

from termforge.clustering import Geometry, KmeansConfig, affinity_propagation, kmeans
from termforge.evaluation import GoldStandard
from termforge.experiment import (
    PipelineConfig,
    Selection,
    SweepConfig,
    SweepResult,
    SweepRow,
    combined_curve,
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
    with pytest.raises(ValueError, match="peak_floor"):
        SweepConfig(peak_floor=0.0)
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
        assert cell.seed == derive_seed(0, NP_VPC, cell.k, cell.repetition)


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


def test_run_sweep_clips_k_max_with_warning():
    result = run_sweep(Geometry(sweep_rep(n=5)), sweep_gold(5),
                       small_config(k_max=50, repetitions=1))
    assert [row.k for row in result.rows] == [2, 3, 4, 5]
    assert result.warnings == (
        "NP_VPC: k_max 50 clipped to 5 (only 5 distinct rows)",)


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


def curve_result(purities, k_min=2):
    """SweepResult whose combined curve is the min-max image of `purities`
    (all other index columns undefined)."""
    rows = tuple(
        SweepRow(k=k_min + t, purity=p, ari=None, dunn2=None, silhouette=None)
        for t, p in enumerate(purities))
    return SweepResult(representation=NP_VPC, rows=rows, cells=(), warnings=())


def test_select_k_first_peak_interior_maximum():
    result = curve_result([0.2, 0.9, 0.5, 0.8])
    assert select_k(result, Selection.FIRST_PEAK) == 3
    assert select_k(result, Selection.GLOBAL) == 3


def test_select_k_monotone_curve_falls_back_to_global():
    result = curve_result([0.1, 0.2, 0.3, 0.4])
    assert select_k(result, Selection.FIRST_PEAK) == 5   # k_max
    assert select_k(result, Selection.GLOBAL) == 5


def test_select_k_first_peak_respects_the_floor():
    # the early bump at k=3 sits below 0.9 x global max, so it is skipped
    result = curve_result([0.2, 0.5, 0.3, 1.0, 0.9])
    assert select_k(result, Selection.FIRST_PEAK, peak_floor=0.9) == 5
    # a permissive floor accepts the early bump
    assert select_k(result, Selection.FIRST_PEAK, peak_floor=0.3) == 3


def test_select_k_plateau_counts_at_its_first_k():
    result = curve_result([0.1, 0.8, 0.8, 0.1])
    assert select_k(result, Selection.FIRST_PEAK) == 3


def test_select_k_leading_plateau_is_not_a_peak():
    result = curve_result([0.8, 0.8, 0.1])
    assert select_k(result, Selection.FIRST_PEAK) == 2   # global fallback


def test_select_k_global_tie_takes_smallest_k():
    result = curve_result([0.3, 0.9, 0.1, 0.9])
    assert select_k(result, Selection.GLOBAL) == 3


def test_select_k_constant_curve_is_flat_half():
    result = curve_result([0.4, 0.4, 0.4])
    assert combined_curve(result) == [0.5, 0.5, 0.5]
    assert select_k(result, Selection.FIRST_PEAK) == 2


def test_select_k_one_row_and_empty():
    assert select_k(curve_result([0.5]), Selection.FIRST_PEAK) == 2
    assert select_k(curve_result([0.5]), Selection.GLOBAL) == 2
    with pytest.raises(ValueError, match="at least 1 sweep row"):
        select_k(curve_result([]))


def test_combined_curve_sums_normalized_indices():
    rows = (
        SweepRow(k=2, purity=0.0, ari=None, dunn2=None, silhouette=1.0),
        SweepRow(k=3, purity=1.0, ari=None, dunn2=None, silhouette=3.0),
        SweepRow(k=4, purity=0.5, ari=None, dunn2=None, silhouette=2.0),
    )
    result = SweepResult(representation=NP_VPC, rows=rows, cells=(), warnings=())
    assert combined_curve(result) == [0.0 + 0.0, 1.0 + 1.0, 0.5 + 0.5]


def test_combined_curve_imputes_missing_points_at_half():
    rows = (
        SweepRow(k=2, purity=0.0, ari=None, dunn2=None, silhouette=None),
        SweepRow(k=3, purity=1.0, ari=None, dunn2=None, silhouette=None),
        SweepRow(k=4, purity=None, ari=None, dunn2=None, silhouette=None),
    )
    result = SweepResult(representation=NP_VPC, rows=rows, cells=(), warnings=())
    assert combined_curve(result) == [0.0, 1.0, 0.5]


def test_combined_curve_with_nothing_defined():
    rows = (
        SweepRow(k=2, purity=None, ari=None, dunn2=None, silhouette=None),
        SweepRow(k=3, purity=None, ari=None, dunn2=None, silhouette=None),
    )
    result = SweepResult(representation=NP_VPC, rows=rows, cells=(), warnings=())
    with pytest.raises(ValueError, match="every index value is undefined"):
        combined_curve(result)
