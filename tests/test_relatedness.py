import errno
import math
import os
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmvae.bounds import (bound_from_log_weights, joint_bound, joint_log_weights, mixture_joint_log_weights,
                          unimodal_draws, unimodal_marginal)
from cmvae.data import FactorSpec, generate_unimodal, make_related_dataset, pair_random, subset, subset_rows
from cmvae.evaluation import AnalyticLinearModel, LinearGaussianOracle, make_oracle
from cmvae import relatedness
from cmvae.models import ModalitySpec, MultimodalModel, build_model
from cmvae.peers import PeerError
from cmvae.relatedness import (
    PropagationConfig,
    carve_pipeline_datasets,
    estimate_threshold,
    map_chunks,
    merge_predicted,
    pmi,
    precision_recall_f1,
    propagate,
    score_dataset,
)


def bivariate_oracle(a=2.0, noise=1.0):
    mat = np.array([[a]])
    return LinearGaussianOracle(loadings={"m1": mat, "m2": mat}, noise_var=noise)


def test_pmi_exact_zero_for_factorized_constant_weights():
    oracle = LinearGaussianOracle(loadings={"m1": np.zeros((2, 1)), "m2": np.zeros((2, 1))},
                                  noise_var=1.5)
    model = AnalyticLinearModel(oracle)  # exact posterior == prior, weights constant
    rng = np.random.default_rng(0)
    vals = pmi(model, {"m1": rng.standard_normal((40, 2)), "m2": rng.standard_normal((40, 2))}, 8, seed=3)
    # constant weights: zero up to float associativity across the three terms
    assert np.abs(vals).max() < 1e-12


def test_pmi_factorized_monte_carlo_small():
    oracle = LinearGaussianOracle(loadings={"m1": np.zeros((2, 1)), "m2": np.zeros((2, 1))},
                                  noise_var=1.5)
    model = AnalyticLinearModel(oracle, scale=0.9, shift=0.3)  # non-constant weights
    rng = np.random.default_rng(1)
    obs = {n: np.sqrt(1.5) * rng.standard_normal((300, 2)) for n in ("m1", "m2")}
    vals = pmi(model, obs, 30, seed=5)
    assert abs(vals.mean()) < 0.05


def test_pmi_bivariate_correlation_value():
    model = AnalyticLinearModel(bivariate_oracle())
    val = pmi(model, {"m1": np.zeros((1, 1)), "m2": np.zeros((1, 1))}, 30, seed=7)[0]
    # exact encoders give constant weights: the estimate is exact
    assert val == pytest.approx(-0.5 * math.log(1 - 0.8 ** 2), abs=1e-9)
    assert val == pytest.approx(0.510826, abs=5e-7)


def test_pmi_symmetric_with_exact_encoders():
    model = AnalyticLinearModel(bivariate_oracle())
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 1))
    y = rng.standard_normal((20, 1))
    fwd = pmi(model, {"m1": x, "m2": y}, 16, seed=9)
    swapped = pmi(model, {"m1": y, "m2": x}, 16, seed=9)
    assert np.allclose(fwd, swapped, atol=1e-9)


LIKELIHOOD_PAIRS = [("gaussian", "gaussian"), ("bernoulli", "bernoulli"), ("bernoulli", "gaussian")]


def perturbed_model(likelihoods, joint_kind="moe", seed=1, obs_dims=(5, 4)):
    """A small model moved away from its initialisation, so no term is constant."""
    mods = [ModalitySpec("m1", obs_dims[0], likelihoods[0]),
            ModalitySpec("m2", obs_dims[1], likelihoods[1])]
    model = build_model(mods, latent_dim=3, hidden_dim=8, joint_kind=joint_kind, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.value = p.value + 0.3 * rng.standard_normal(p.value.shape)
    return model


def random_pairs(model, n, seed):
    rng = np.random.default_rng(seed)
    return {m.name: rng.uniform(size=(n, m.obs_dim)) if m.likelihood == "bernoulli"
            else rng.standard_normal((n, m.obs_dim)) for m in model.modalities}


@pytest.mark.parametrize("likelihoods", LIKELIHOOD_PAIRS)
def test_moe_pmi_terms_match_separate_estimators(likelihoods):
    model = perturbed_model(likelihoods)
    obs = random_pairs(model, 9, seed=2)
    draws = {n: unimodal_draws(model, n, obs[n], 6, seed=3) for n in obs}
    log_w = mixture_joint_log_weights(model, obs, draws, 6)
    assert np.array_equal(log_w.value, joint_log_weights(model, obs, 6, seed=3).value)
    joint = bound_from_log_weights(log_w, "iwae").value
    alone = joint_bound(model, obs, "iwae", 6, seed=3).value
    np.testing.assert_allclose(joint, alone, rtol=1e-12, atol=0)
    marginals = [unimodal_marginal(draws[n]).value for n in ("m1", "m2")]
    np.testing.assert_allclose(pmi(model, obs, 6, seed=3), alone - marginals[0] - marginals[1],
                               rtol=0, atol=1e-12 * np.abs(alone).max())
    with pytest.raises(ValueError, match="divisible by 2"):
        pmi(model, obs, 5, seed=3)


@pytest.mark.parametrize("joint_kind", ["moe", "poe"])
def test_score_dataset_independent_of_chunk_and_pair_order(joint_kind):
    spec = FactorSpec(num_classes=3, obs_dims=(5, 4), private_dims=(1, 1),
                      likelihoods=("bernoulli", "gaussian"))
    # 48 pairs, so no chunk of 7 holds one row: numpy hands a one-row product
    # to BLAS gemv, which rounds differently from the gemm of larger chunks
    mixed = pair_random(spec, generate_unimodal(spec, 48, "m1", 1),
                        generate_unimodal(spec, 48, "m2", 2), seed=3)
    model = perturbed_model(spec.likelihoods, joint_kind)
    scores = score_dataset(model, mixed, 6, seed=4)
    assert np.array_equal(score_dataset(model, mixed, 6, seed=4, chunk=7), scores)
    perm = np.random.default_rng(5).permutation(len(mixed))
    shuffled = replace(mixed, pairs=mixed.pairs[perm], related=mixed.related[perm])
    assert np.array_equal(score_dataset(model, shuffled, 6, seed=4, chunk=7), scores[perm])


@pytest.mark.parametrize("joint_kind", ["moe", "poe"])
@pytest.mark.parametrize("obs_dims, rtol", [((16, 16), 0.0), ((16, 12), 1e-12)])
def test_score_dataset_chunk_size_moves_scores_at_most_by_blas_rounding(obs_dims, rtol, joint_kind):
    # At the shipped 16/16 dimensions chunks score bit for bit alike.  At
    # other output widths BLAS may round a row differently at another
    # number of rows, so scores agree only to rounding there.
    spec = FactorSpec(num_classes=3, obs_dims=obs_dims, private_dims=(1, 1),
                      likelihoods=("bernoulli", "gaussian"))
    mixed = pair_random(spec, generate_unimodal(spec, 150, "m1", 1),
                        generate_unimodal(spec, 150, "m2", 2), seed=3)
    model = perturbed_model(spec.likelihoods, joint_kind, obs_dims=obs_dims)
    scores = score_dataset(model, mixed, 6, seed=4, chunk=128)
    for chunk in (7, 64):
        np.testing.assert_allclose(score_dataset(model, mixed, 6, seed=4, chunk=chunk), scores,
                                   rtol=rtol, atol=0, err_msg=f"chunk {chunk}")


forked_workers = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                    reason="scoring workers are forked on Linux only")


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def pid_rows(start, stop):
    """Each row's value is the id of the process that computed it."""
    return np.full(stop - start, float(os.getpid()))


@forked_workers
@pytest.mark.parametrize("joint_kind", ["moe", "poe"])
def test_score_dataset_same_bits_for_any_worker_count(monkeypatch, helpers, all_reaped, joint_kind):
    spec = FactorSpec(num_classes=3, obs_dims=(5, 4), private_dims=(1, 1),
                      likelihoods=("bernoulli", "gaussian"))
    # 115 pairs in chunks of 7 make 17 chunks, dealt 5/6/6 to three shares;
    # the last chunk has 3 rows, so no chunk is a one-row product
    mixed = pair_random(spec, generate_unimodal(spec, 115, "m1", 1),
                        generate_unimodal(spec, 115, "m2", 2), seed=3)
    model = perturbed_model(spec.likelihoods, joint_kind)
    scores = {}
    for cpus in (1, 2, 3):
        usable_cpus(monkeypatch, cpus)
        assert relatedness.share_count(17, cpus) == cpus
        scores[cpus] = score_dataset(model, mixed, 6, seed=4, chunk=7)
    assert np.array_equal(scores[2], scores[1]) and np.array_equal(scores[3], scores[1])
    assert len(helpers) == 3 and all_reaped(helpers)


@forked_workers
def test_map_chunks_deals_contiguous_shares_and_starts_no_worker_below_the_minimum(monkeypatch, helpers,
                                                                                    all_reaped):
    usable_cpus(monkeypatch, 2)
    pids = map_chunks(pid_rows, 10 * 64 + 5)  # 11 chunks: the caller's 5, then a worker's 6
    assert (pids[:5 * 64] == os.getpid()).all()
    assert set(pids[5 * 64:]) == {helpers[0].pid}
    assert len(helpers) == 1 and all_reaped(helpers)

    def no_peer(*args, **kwargs):
        raise AssertionError("a worker process was started")

    usable_cpus(monkeypatch, 8)
    monkeypatch.setattr(relatedness, "Peer", no_peer)
    chunks = 2 * relatedness.SHARE_MIN_CHUNKS - 1  # one chunk short of two shares
    assert (map_chunks(pid_rows, chunks * 64) == os.getpid()).all()
    assert map_chunks(pid_rows, 0).shape == (0,)


def test_a_trailing_single_row_joins_the_chunk_before_it():
    # numpy hands a one-row product to BLAS gemv, which rounds differently
    # from gemm: dealt as a chunk of its own, row 64 of 65 scored apart
    # from row 64 of a 128-pair pass
    spec = FactorSpec()
    mixed = pair_random(spec, generate_unimodal(spec, 128, "m1", 0),
                        generate_unimodal(spec, 128, "m2", 1), seed=3)
    model = perturbed_model(spec.likelihoods, obs_dims=spec.obs_dims, seed=0)
    scores = score_dataset(model, mixed, 30, seed=4)
    head = mixed.with_pairs(mixed.pairs[:65], 1, 0)
    assert np.array_equal(score_dataset(model, head, 30, seed=4), scores[:65])
    spans = []
    map_chunks(lambda start, stop: spans.append((start, stop)) or np.zeros(stop - start), 2 * 64 + 1)
    assert spans == [(0, 64), (64, 129)]


@forked_workers
def test_a_failing_chunk_raises_its_error_and_leaves_no_worker(monkeypatch, helpers, all_reaped):
    usable_cpus(monkeypatch, 2)
    # the model reads 5 columns of m1; these observations have 6
    spec = FactorSpec(num_classes=3, obs_dims=(6, 4), private_dims=(1, 1),
                      likelihoods=("bernoulli", "gaussian"))
    mixed = pair_random(spec, generate_unimodal(spec, 640, "m1", 1),
                        generate_unimodal(spec, 640, "m2", 2), seed=3)
    with pytest.raises(ValueError):
        score_dataset(perturbed_model(spec.likelihoods), mixed, 6, seed=4)
    assert len(helpers) == 1 and all_reaped(helpers)

    def fails_in_the_worker(start, stop):
        if start >= 5 * 64:
            raise ZeroDivisionError(f"chunk at row {start}")
        return np.zeros(stop - start)

    with pytest.raises(ZeroDivisionError, match="chunk at row 320"):
        map_chunks(fails_in_the_worker, 10 * 64)
    assert len(helpers) == 2 and all_reaped(helpers)


class TwoArgError(Exception):
    """Pickles, but its two-argument constructor cannot rebuild it from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a}{b}")


@forked_workers
@pytest.mark.parametrize("how", ["dies", "unpicklable"])
def test_a_worker_that_dies_or_sends_no_exception_raises_peer_error_and_leaves_no_child(
        monkeypatch, helpers, all_reaped, how):
    usable_cpus(monkeypatch, 2)

    def fails_in_the_worker(start, stop):
        if start >= 5 * 64 and how == "dies":
            os.kill(os.getpid(), signal.SIGKILL)
        if start >= 5 * 64:
            raise TwoArgError("chunk at row ", start)
        return np.zeros(stop - start)

    with pytest.raises(PeerError):
        map_chunks(fails_in_the_worker, 10 * 64)
    assert len(helpers) == 1 and all_reaped(helpers)


@forked_workers
def test_a_failed_fork_scores_in_the_caller_and_leaves_nothing_open(monkeypatch, helpers, all_reaped):
    def fds():
        return sorted(os.listdir(f"/proc/{os.getpid()}/fd"))

    spec = FactorSpec()
    mixed = pair_random(spec, generate_unimodal(spec, 640, "m1", 1),
                        generate_unimodal(spec, 640, "m2", 2), seed=3)
    model = perturbed_model(spec.likelihoods, obs_dims=spec.obs_dims)
    usable_cpus(monkeypatch, 1)
    one = score_dataset(model, mixed, 6, seed=4)
    usable_cpus(monkeypatch, 2)
    forks = []

    def no_fork():
        forks.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    before = fds()
    assert np.array_equal(score_dataset(model, mixed, 6, seed=4), one)
    assert fds() == before
    assert forks == [1] and helpers == [] and all_reaped(helpers)


def test_importing_cmvae_loads_no_process_pool():
    code = "import sys, cmvae; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_fresh_moe_with_zeroed_decoders_scores_zero_pmi():
    mods = [ModalitySpec("m1", 5, "bernoulli"), ModalitySpec("m2", 4, "gaussian")]
    model = build_model(mods, latent_dim=3, hidden_dim=8, joint_kind="moe", seed=5)
    obs = random_pairs(model, 12, seed=6)
    for name in ("m1", "m2"):
        q = model.encode_unimodal(name, obs[name])  # zero heads: q is the prior
        assert not q.mean.value.any() and not q.log_var.value.any()
    for k, p in model.params.items():
        if k.startswith("dec."):
            p.value = np.zeros_like(p.value)
    assert np.abs(pmi(model, obs, 30, seed=7)).max() < 1e-12


def test_moe_scoring_decodes_3k_rows_per_pair(monkeypatch):
    rows = []
    decode = MultimodalModel.decode

    def counting_decode(self, name, z):
        rows.append(int(np.prod(z.shape[:-1])))
        return decode(self, name, z)

    monkeypatch.setattr(MultimodalModel, "decode", counting_decode)
    spec = FactorSpec(num_classes=3, obs_dims=(5, 4), private_dims=(1, 1))
    mixed = pair_random(spec, generate_unimodal(spec, 20, "m1", 1),
                        generate_unimodal(spec, 20, "m2", 2), seed=3)
    score_dataset(perturbed_model(spec.likelihoods), mixed, 30, seed=4, chunk=8)
    assert sum(rows) == 3 * 30 * len(mixed)


def test_estimate_threshold_separable_case():
    scores = np.array([2.0, 3.0, -1.0, 0.0])
    truth = np.array([1, 1, 0, 0])
    thr = estimate_threshold(scores, truth)
    assert thr == pytest.approx(1.0)
    _, _, f1 = precision_recall_f1(scores > thr, truth.astype(bool))
    assert f1 == 1.0


def test_estimate_threshold_interleaved_sweep_matches_bruteforce():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(40)
    truth = rng.integers(0, 2, size=40).astype(bool)
    if truth.all() or (~truth).all():
        truth[0] = ~truth[0]
    thr = estimate_threshold(scores, truth)

    def f1_at(t):
        return precision_recall_f1(scores > t, truth)[2]

    # brute force over a fine grid plus the candidate boundaries
    grid = np.concatenate([np.linspace(scores.min() - 1, scores.max() + 1, 4001)])
    best = max(f1_at(t) for t in grid)
    assert f1_at(thr) == pytest.approx(best, abs=1e-12)
    assert best < 1.0


def test_estimate_threshold_degenerate_inputs():
    with pytest.raises(ValueError):
        estimate_threshold(np.array([1.0, 2.0]), np.array([1, 1]))
    with pytest.raises(ValueError):
        estimate_threshold(np.array([5.0, 5.0, 5.0]), np.array([1, 0, 1]))


def test_estimate_threshold_tie_prefers_larger():
    # both boundaries reach F1 = 1; the larger midpoint must win
    scores = np.array([10.0, 0.0, 0.0, -10.0])
    truth = np.array([1, 1, 0, 0])
    # scores 0.0 appear in both classes: end F1 < 1, interleaved; use distinct
    scores = np.array([10.0, 4.0, 2.0, -10.0])
    thr = estimate_threshold(scores, truth)
    assert thr == pytest.approx(3.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5000, 5000).map(lambda k: k / 100.0), min_size=4, max_size=24),
       st.floats(0.5, 3.0, allow_subnormal=False), st.floats(-5, 5, allow_subnormal=False))
def test_threshold_invariant_to_monotone_transform(raw, a, b):
    # rank statistic: the induced prediction set survives any well-scaled
    # strictly increasing affine transform of the scores
    scores = np.asarray(raw)
    truth = (np.arange(len(scores)) % 2).astype(bool)
    transformed = a * scores + b
    if np.unique(scores).size < 2 or np.unique(transformed).size != np.unique(scores).size:
        return
    thr = estimate_threshold(scores, truth)
    scaled = estimate_threshold(transformed, truth)
    assert np.array_equal(transformed > scaled, scores > thr)


def exhaustive_threshold(scores, truth, rule):
    """Reference sweep: score every candidate boundary, keep the last best."""
    uniq = np.unique(scores)
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    candidates = np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]])
    best_stat, best_t = -np.inf, None
    for t in candidates:
        pred = scores > t
        if rule == "max-accuracy":
            stat = float(np.mean(pred == truth))
        else:
            stat = precision_recall_f1(pred, truth)[2]
        if stat >= best_stat:
            best_stat, best_t = stat, float(t)
    return best_t


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.booleans()), min_size=2, max_size=40),
       st.sampled_from([(0.0, 1.0), (0.0, 0.37), (0.0, 1e-300), (1.0, float(np.spacing(1.0)))]),
       st.sampled_from(["max-f1", "max-accuracy"]))
@example(items=[(4, False), (5, True)], grid=(1.0, float(np.spacing(1.0))), rule="max-accuracy")
def test_threshold_matches_exhaustive_sweep(items, grid, rule):
    # small integer steps make ties within and across classes common; steps of
    # one ulp make midpoints round onto a score
    offset, step = grid
    scores = offset + np.array([k for k, _ in items], dtype=np.float64) * step
    truth = np.array([r for _, r in items])
    if truth.all() or (~truth).all() or np.unique(scores).size < 2:
        return
    assert estimate_threshold(scores, truth, rule) == exhaustive_threshold(scores, truth, rule)


def test_precision_recall_f1_conventions():
    truth = np.array([1, 0, 1, 0], dtype=bool)
    p, r, f1 = precision_recall_f1(np.zeros(4, dtype=bool), truth)
    assert (p, r, f1) == (0.0, 0.0, 0.0)
    p, r, f1 = precision_recall_f1(np.ones(4, dtype=bool), truth)
    assert r == 1.0 and p == 0.5 and f1 == pytest.approx(2 * 0.5 / 1.5)
    p, r, f1 = precision_recall_f1(truth, truth)
    assert f1 == 1.0


def test_propagate_threshold_extremes():
    model = AnalyticLinearModel(bivariate_oracle())
    spec = FactorSpec(num_classes=2, obs_dims=(8, 8), private_dims=(1, 1))
    ds = make_related_dataset(spec, 24, seed=4)
    with pytest.raises(ValueError):
        propagate(model, ds, math.inf, 4, seed=0)


def test_propagate_low_threshold_full_recall():
    spec = FactorSpec(num_classes=2, obs_dims=(2, 2), private_dims=(0, 0))
    from cmvae.data import generate_unimodal, pair_random
    x = generate_unimodal(spec, 60, "m1", seed=5)
    y = generate_unimodal(spec, 60, "m2", seed=6)
    mixed = pair_random(spec, x, y, seed=7)
    oracle = LinearGaussianOracle(loadings={"m1": np.zeros((2, 1)), "m2": np.zeros((2, 1))},
                                  noise_var=1.0)
    model = AnalyticLinearModel(oracle, scale=0.9)
    pred, q = propagate(model, mixed, -1e12, 4, seed=8)
    assert q["recall"] == 1.0
    assert q["precision"] == pytest.approx(mixed.related.mean())


def test_carve_pipeline_shapes_and_purity():
    spec = FactorSpec()
    full = make_related_dataset(spec, 200, seed=9)
    small, small_mixed, full_mixed = carve_pipeline_datasets(full, 10.0, seed=10)
    assert len(np.unique(small.pairs[:, 0])) == 20
    assert small.related.all()
    assert len(np.unique(full_mixed.pairs[:, 0])) == 180
    # mixed sets keep truthful flags
    lab = small_mixed.pair_labels()
    assert np.array_equal(small_mixed.related.astype(bool), lab["m1"] == lab["m2"])
    again = carve_pipeline_datasets(full, 10.0, seed=10)
    assert np.array_equal(again[2].pairs, full_mixed.pairs)


def test_pipeline_sets_partition_each_pool_with_repeated_rows():
    # without noise or private factors every row of a class is the same bytes
    spec = FactorSpec(num_classes=3, obs_dims=(4, 4), private_dims=(0, 0), noise_scale=0.0)
    full = make_related_dataset(spec, 60, seed=3)
    small, small_mixed, full_mixed = carve_pipeline_datasets(full, 20.0, seed=4)
    kept = subset_rows(full, 20.0, seed=4)
    for m, name in enumerate(spec.modality_names):
        rest = np.setdiff1d(np.arange(60), kept[name])
        assert len(kept[name]) == 12 and len(rest) == 48
        assert set(small.pairs[:, m]) | set(small_mixed.pairs[:, m]) <= set(kept[name])
        assert set(full_mixed.pairs[:, m]) <= set(rest)
    # every row of the first modality is paired once, either for the threshold or for propagation
    first = np.concatenate([small_mixed.pairs[:, 0], full_mixed.pairs[:, 0]])
    assert np.array_equal(np.sort(first), np.arange(60))
    expect = subset(full, 20.0, seed=4)
    for name, rows in small.pair_observations().items():
        assert np.array_equal(rows, expect.pair_observations()[name])


def test_merge_predicted_combines_pools():
    spec = FactorSpec()
    full = make_related_dataset(spec, 100, seed=11)
    small, small_mixed, full_mixed = carve_pipeline_datasets(full, 20.0, seed=12)
    predicted = np.zeros(len(full_mixed), dtype=np.uint8)
    predicted[:5] = 1
    merged = merge_predicted(small, full_mixed, predicted)
    assert len(merged) == len(small) + 5
    names = spec.modality_names
    obs = merged.pair_observations()
    tail = obs[names[0]][-5:]
    expect = full_mixed.pair_observations()[names[0]][:5]
    assert np.array_equal(tail, expect)
    other = carve_pipeline_datasets(make_related_dataset(spec, 100, seed=13), 20.0, seed=12)[2]
    with pytest.raises(ValueError, match="same pools"):
        merge_predicted(small, other, np.ones(len(other), dtype=np.uint8))


def test_propagation_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(pretrain_percent=0.0)
    with pytest.raises(ValueError):
        PropagationConfig(pmi_num_samples=0)
    with pytest.raises(ValueError):
        PropagationConfig(threshold_rule="best-guess")


def test_pmi_error_against_exact_shrinks_with_k_for_moe_and_vanishes_for_explicit():
    # Exact unimodal posteriors make both marginal terms exact, so the
    # error is the joint IWAE's: the mixture proposal's bias falls with K,
    # and the exact joint posterior has none at any K.
    oracle = make_oracle(obs_dims=(4, 4), latent_dim=2, noise_var=1.0, loading_scale=2.0, seed=0)
    pairs = oracle.sample_pairs(400, 1)
    exact = oracle.exact_pmi(pairs)
    moe = AnalyticLinearModel(oracle, joint_kind="moe")
    explicit = AnalyticLinearModel(oracle)
    errors = []
    for k in (2, 30, 300):
        errors.append((pmi(moe, pairs, k, seed=0) - exact).mean())
        assert np.abs(pmi(explicit, pairs, k, seed=0) - exact).max() < 1e-9
    assert errors[0] < errors[1] < errors[2] < 0
    assert errors[2] > -0.005


@pytest.mark.parametrize("joint_kind", ["explicit", "poe", "moe"])
def test_score_dataset_of_analytic_model_equals_pmi(joint_kind):
    spec = FactorSpec(num_classes=2, obs_dims=(2, 2), private_dims=(0, 0))
    mixed = pair_random(spec, generate_unimodal(spec, 150, "m1", 1),
                        generate_unimodal(spec, 150, "m2", 2), seed=3)  # three chunks
    model = AnalyticLinearModel(make_oracle(obs_dims=(2, 2)), scale=0.9, shift=0.3, joint_kind=joint_kind)
    frozen = model.frozen()
    assert type(frozen) is AnalyticLinearModel and frozen.joint_kind == joint_kind
    assert frozen.oracle is model.oracle and (frozen.scale, frozen.shift) == (0.9, 0.3)
    np.testing.assert_array_equal(score_dataset(model, mixed, 4, seed=6),
                                  pmi(model, mixed.pair_observations(), 4, seed=6))
