import copy
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectes import ensemble as ensemble_mod
from sectes import parallel
from sectes.ctes import TrainConfig, train_ctes
from sectes.datagen import (GpSimConfig, PairedDataset,
                            gen_scalar_to_matrix_dataset)
from sectes.ensemble import (EnsembleConfig, EnsembleModel,
                             ensemble_synthesize, inverse_validation_scores,
                             select_top_h, train_se_ctes)
from sectes.errors import ConfigError, EnsembleError, TrainingDiverged
from sectes.forest import ForestConfig
from sectes.validation import sample_model


@pytest.fixture
def one_blas_thread(monkeypatch):
    """Size ensemble pools as for a BLAS pinned to one thread, so that
    train_se_ctes runs its tasks in worker processes on 2+ CPUs."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def small_dataset(seed=0, n=60):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = np.hstack([x + 0.05 * rng.standard_normal((n, 1)),
                   2 * x + 0.05 * rng.standard_normal((n, 1))])
    return PairedDataset(x=x, y=y, groups=np.ones(n, int), n_groups=1)


def constant_model(dataset, value, seed=0):
    """A generator that always emits `value` (zero net + shifted offset)."""
    model = train_ctes(dataset, TrainConfig(iterations=0, batch_size=8,
                                            seed=seed))
    for net in (model.mixer, model.decoder):
        for lay in net.layers:
            lay["W"][:] = 0.0
            lay["b"][:] = 0.0
    model.norm.y_mean = np.full(dataset.expr_dim, float(value))
    return model


def test_select_top_h_basic():
    assert select_top_h([0.9, 0.2, 0.8, 0.5, 0.7], 2) == [0, 2]
    assert select_top_h([0.5, 0.5, 0.5], 2) == [0, 1]  # tie -> lowest index
    assert select_top_h([0.1, 0.9, 0.4], 3) == [0, 1, 2]
    with pytest.raises(ConfigError):
        select_top_h([0.1, 0.2], 3)


def test_ensemble_config_enforces_k_greater_than_2h():
    with pytest.raises(ConfigError):
        EnsembleConfig(k=4, h=2)
    with pytest.raises(ConfigError):
        EnsembleConfig(k=2, h=1)
    with pytest.raises(ConfigError):
        EnsembleConfig(k=5, h=0)
    EnsembleConfig(k=5, h=2)  # the published default is valid


def test_inverse_validation_identical_batches_scores_equal():
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(40, 3))
    real = rng.normal(size=(40, 3))
    scores = inverse_validation_scores([batch, batch.copy(), batch.copy()],
                                       real, ForestConfig(n_trees=30, seed=1))
    assert len(scores) == 3
    assert np.allclose(scores, scores[0])


def test_inverse_validation_default_k_five_gives_five_scores():
    rng = np.random.default_rng(1)
    batches = [rng.normal(size=(30, 2)) for _ in range(5)]
    real = rng.normal(size=(30, 2))
    scores = inverse_validation_scores(batches, real,
                                       ForestConfig(n_trees=20, seed=2))
    assert scores.shape == (5,)
    assert np.all((scores >= 0) & (scores <= 1))


def test_inverse_validation_flags_degenerate_member():
    rng = np.random.default_rng(2)
    real = rng.normal(0.0, 1.0, size=(200, 4))
    good1 = rng.normal(0.0, 0.7, size=(200, 4))
    good2 = rng.normal(0.0, 0.7, size=(200, 4))
    degenerate = np.full((200, 4), 100.0)
    scores = inverse_validation_scores([good1, degenerate, good2], real,
                                       ForestConfig(n_trees=60, seed=3))
    assert scores[1] < scores[0] and scores[1] < scores[2]
    assert 1 not in select_top_h(scores, 2)


def test_inverse_validation_permutation_symmetry():
    rng = np.random.default_rng(3)
    batches = [rng.normal(loc=i * 0.2, size=(50, 3)) for i in range(4)]
    real = rng.normal(size=(60, 3))
    cfg = ForestConfig(n_trees=40, seed=5)
    base = inverse_validation_scores(batches, real, cfg)
    perm = [2, 0, 3, 1]
    permuted = inverse_validation_scores([batches[i] for i in perm], real,
                                         cfg)
    assert np.array_equal(permuted, base[perm])
    # the selected model set (as models) is unchanged
    sel_base = {id(batches[i]) for i in select_top_h(base, 2)}
    sel_perm = {id(batches[perm[i]]) for i in select_top_h(permuted, 2)}
    assert sel_base == sel_perm


def test_inverse_validation_input_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        inverse_validation_scores([rng.normal(size=(10, 2))],
                                  rng.normal(size=(10, 2)),
                                  ForestConfig(n_trees=5))
    with pytest.raises(ValueError):
        inverse_validation_scores(
            [rng.normal(size=(10, 2)), rng.normal(size=(10, 3))],
            rng.normal(size=(10, 2)), ForestConfig(n_trees=5))


def tiny_ensemble_config(k=3, h=1, seed=0):
    return EnsembleConfig(
        k=k, h=h,
        train=TrainConfig(iterations=25, batch_size=10, seed=seed),
        clf=ForestConfig(n_trees=20))


def test_train_se_ctes_counts_and_selection():
    ds = small_dataset()
    cfg = EnsembleConfig(k=5, h=2,
                         train=TrainConfig(iterations=20, batch_size=10,
                                           seed=1),
                         clf=ForestConfig(n_trees=15))
    ens = train_se_ctes(ds, cfg)
    assert len(ens.models) == 5
    assert len(ens.scores) == 5
    assert len(ens.selected) == 2
    assert ens.selected == sorted(ens.selected)
    # selection optimality: every selected score >= every non-selected score
    not_sel = [i for i in range(5) if i not in ens.selected]
    assert min(ens.scores[ens.selected]) >= max(ens.scores[not_sel])


def test_train_se_ctes_deterministic():
    ds = small_dataset()
    a = train_se_ctes(ds, tiny_ensemble_config(seed=7))
    b = train_se_ctes(ds, tiny_ensemble_config(seed=7))
    assert a.selected == b.selected
    assert np.array_equal(a.scores, b.scores)


def test_train_se_ctes_follows_the_training_seed():
    # config.train.seed roots every member and forest seed
    ds = small_dataset()
    cfgs = [tiny_ensemble_config(seed=s) for s in (7, 8)]
    a, b = (train_se_ctes(ds, cfg) for cfg in cfgs)
    for ens, cfg in zip((a, b), cfgs):
        assert [m.config.seed for m in ens.models] == \
            [member_train_seed(cfg, i) for i in range(cfg.k)]
    for ma, mb in zip(a.models, b.models):
        assert not np.array_equal(ma.loss_d, mb.loss_d)


def member_train_seed(config, i):
    """The training seed train_se_ctes derives for member i."""
    member = np.random.SeedSequence(config.train.seed).spawn(config.k)[i]
    return int(member.spawn(2)[0].generate_state(1)[0])


def force_divergence(monkeypatch, cfg, members):
    """Make the given members of an ensemble run diverge. Members may
    train in worker processes, so they are picked by their derived seeds
    rather than by counting calls."""
    real_train = ensemble_mod.train_ctes
    doomed = {member_train_seed(cfg, i) for i in members}

    def flaky(dataset, config):
        if config.seed in doomed:
            raise TrainingDiverged("forced", iteration=3)
        return real_train(dataset, config)

    monkeypatch.setattr(ensemble_mod, "train_ctes", flaky)


def on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert parallel.usable_cpus() == 1


def test_train_se_ctes_divergent_member_scores_zero(monkeypatch,
                                                   one_blas_thread):
    ds = small_dataset()
    cfg = tiny_ensemble_config(k=3, h=1, seed=2)
    force_divergence(monkeypatch, cfg, [1])  # second member blows up
    ens = train_se_ctes(ds, cfg)
    assert ens.models[1] is None
    assert ens.scores[1] == 0.0
    assert "diverged" in ens.diagnostics[1]
    assert 1 not in ens.selected
    # the pooled run is the one-process run
    on_one_cpu(monkeypatch)
    assert_same_ensemble(train_se_ctes(ds, cfg), ens)


def test_train_se_ctes_lone_finished_member_scores_one(monkeypatch):
    ds = small_dataset()
    cfg = tiny_ensemble_config(k=3, h=1, seed=2)
    force_divergence(monkeypatch, cfg, [0, 2])
    fits = []
    monkeypatch.setattr(ensemble_mod, "fit_forest",
                        lambda *args: fits.append(args))
    on_one_cpu(monkeypatch)
    ens = train_se_ctes(ds, cfg)
    assert ens.scores.tolist() == [0.0, 1.0, 0.0]
    assert ens.selected == [1] and fits == []


def test_a_diverged_member_is_not_selected_on_a_tie(monkeypatch):
    """A diverged member keeps score 0; when finished members score 0
    too, the tie still goes to a finished member."""
    ds = small_dataset()
    cfg = tiny_ensemble_config(k=5, h=2, seed=2)
    force_divergence(monkeypatch, cfg, [0])
    monkeypatch.setattr(ensemble_mod, "_member_score", lambda *args: 0.0)
    on_one_cpu(monkeypatch)
    ens = train_se_ctes(ds, cfg)
    assert ens.models[0] is None
    assert ens.scores.tolist() == [0.0] * 5
    assert ens.selected == [1, 2]
    out = ensemble_synthesize(ens, np.repeat([[0.5]], 4, 0),
                              np.random.default_rng(0))
    assert out.shape == (4, 2) and np.isfinite(out).all()


def test_train_se_ctes_too_few_finished_cancels_and_leaves_no_children(
        monkeypatch, one_blas_thread):
    ds = small_dataset()
    cfg = tiny_ensemble_config(k=7, h=3, seed=5)
    force_divergence(monkeypatch, cfg, [0, 1, 2, 4, 6])
    with pytest.raises(EnsembleError, match="5 of 7 members diverged"):
        train_se_ctes(ds, cfg)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("last_diverges", [False, True])
def test_forest_fits_while_its_member_still_trains(monkeypatch,
                                                   last_diverges):
    """Member 4's forest needs only members 0-3, so on two workers it is
    fitted while member 4 trains; the result is the one-process result,
    also when member 4 then diverges."""
    ds = small_dataset()
    cfg = tiny_ensemble_config(k=5, h=2, seed=6)
    if last_diverges:
        force_divergence(monkeypatch, cfg, [4])
    on_one_cpu(monkeypatch)
    want = train_se_ctes(ds, cfg)
    real_train, real_fit = ensemble_mod.train_ctes, ensemble_mod.fit_forest
    last = member_train_seed(cfg, 4)
    forest_started = threading.Event()
    overlapped = []

    def train_last_after_a_forest(dataset, config):
        if config.seed == last:
            overlapped.append(forest_started.wait(timeout=30))
        return real_train(dataset, config)

    def fit(*args):
        forest_started.set()
        return real_fit(*args)

    @contextmanager
    def two_threads(tasks):
        with ThreadPoolExecutor(2) as pool:
            yield pool

    monkeypatch.setattr(ensemble_mod, "train_ctes", train_last_after_a_forest)
    monkeypatch.setattr(ensemble_mod, "fit_forest", fit)
    monkeypatch.setattr(ensemble_mod, "task_pool", two_threads)
    assert_same_ensemble(train_se_ctes(ds, cfg), want)
    assert overlapped == [True]
    assert (want.models[4] is None) == last_diverges


def wide_dataset(n=120, d=80, seed=0):
    """A dataset whose expression batches (n*d float64) are larger than a
    pipe's 64 KiB buffer."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = x + 0.05 * rng.standard_normal((n, d))
    return PairedDataset(x=x, y=y, groups=np.ones(n, int), n_groups=1)


def slow_member(monkeypatch, cfg, member, seconds):
    """Make one member train ``seconds`` longer, so that on two workers
    its forest is fitted while it still trains."""
    real_train = ensemble_mod.train_ctes
    slow = member_train_seed(cfg, member)

    def train(dataset, config):
        if config.seed == slow:
            time.sleep(seconds)
        return real_train(dataset, config)

    monkeypatch.setattr(ensemble_mod, "train_ctes", train)


def test_train_se_ctes_pooled_with_batches_larger_than_a_pipe(
        monkeypatch, one_blas_thread):
    """Member 2's forest is fitted in a worker while member 2 trains and
    comes back to the caller, which scores member 2's large batch: the
    pooled early path gives the one-process result."""
    ds = wide_dataset()
    assert ds.y.nbytes > 64 * 1024
    cfg = tiny_ensemble_config(k=3, h=1, seed=8)
    slow_member(monkeypatch, cfg, 2, 1.0)
    pooled = train_se_ctes(ds, cfg)
    assert multiprocessing.active_children() == []
    on_one_cpu(monkeypatch)
    assert_same_ensemble(train_se_ctes(ds, cfg), pooled)


def test_train_se_ctes_raises_when_an_early_forest_fails(monkeypatch,
                                                        one_blas_thread):
    """Member 2's forest starts while member 2 trains and fails after
    member 2 is done. Its error reaches the caller, and the pool leaves
    no worker behind."""
    ds = wide_dataset()
    cfg = tiny_ensemble_config(k=3, h=1, seed=8)
    slow_member(monkeypatch, cfg, 2, 0.5)

    def failing_fit(*args):
        time.sleep(1.5)
        raise RuntimeError("forest failed")

    monkeypatch.setattr(ensemble_mod, "fit_forest", failing_fit)
    with pytest.raises(RuntimeError, match="forest failed"):
        train_se_ctes(ds, cfg)
    assert multiprocessing.active_children() == []


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_train_se_ctes_result_does_not_depend_on_completion_order(data):
    """Tasks are computed as they are submitted, but the scheduler learns
    of each one only when a drawn ``wait`` releases it, so any order of
    finishing can be drawn, early forests included. The member that is
    never released finishes last: only it may get an early forest."""
    k = data.draw(st.integers(3, 7), label="k")
    h = data.draw(st.integers(1, (k - 1) // 2), label="h")
    doomed = data.draw(st.sets(st.integers(0, k - 1)), label="diverging")
    cfg = EnsembleConfig(k=k, h=h, train=TrainConfig(iterations=3,
                                                     batch_size=10, seed=k),
                         clf=ForestConfig(n_trees=5))
    submitted, calls, released = [], [], []

    class HeldExecutor(parallel.InlineExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(super().submit(fn, *args, **kwargs))
            calls.append((fn, args))
            return submitted[-1]

    def release_one(fs, return_when):
        held = [f for f in submitted if f in fs]
        one = held[data.draw(st.integers(0, len(held) - 1), label="next")]
        released.append(one)
        return {one}, set(fs) - {one}

    def run():
        try:
            return train_se_ctes(small_dataset(), cfg)
        except EnsembleError:
            return None

    with pytest.MonkeyPatch.context() as mp:
        force_divergence(mp, cfg, doomed)
        mp.setattr(ensemble_mod, "task_pool",
                   lambda tasks: nullcontext(parallel.InlineExecutor()))
        want = run()
        mp.setattr(ensemble_mod, "task_pool",
                   lambda tasks: nullcontext(HeldExecutor()))
        mp.setattr(ensemble_mod, "wait", release_one)
        got = run()
    assert (want is None) == (got is None) == (len(doomed) > k - h)
    if want is None:
        return
    assert_same_ensemble(got, want)
    # trainings are submitted first, in member order; a forest task's
    # first argument is its member's peer batches
    last = next(i for i in range(k) if submitted[i] not in released)
    finished = set(range(k)) - doomed
    others = finished - {last}

    def peer_counts(fn):
        return [len(args[0]) for f, args in calls if f is fn]

    assert peer_counts(ensemble_mod._peer_forest) == \
        ([len(others)] if others else [])
    assert peer_counts(ensemble_mod._member_score) == \
        [len(finished) - 1] * (len(others) if len(finished) > 1 else 0)


def test_train_se_ctes_too_many_failures(monkeypatch):
    ds = small_dataset()

    def always_fails(dataset, config):
        raise TrainingDiverged("forced")

    monkeypatch.setattr(ensemble_mod, "train_ctes", always_fails)
    with pytest.raises(EnsembleError):
        train_se_ctes(ds, tiny_ensemble_config(k=3, h=1, seed=3))


def test_training_diverged_survives_pickling():
    # diverged members come back from worker processes as pickles
    exc = pickle.loads(pickle.dumps(TrainingDiverged("forced", iteration=3)))
    assert isinstance(exc, TrainingDiverged)
    assert str(exc) == "forced"
    assert exc.iteration == 3


def assert_same_ensemble(a, b):
    assert a.selected == b.selected
    assert np.array_equal(a.scores, b.scores)
    assert a.diagnostics == b.diagnostics
    for ma, mb in zip(a.models, b.models):
        assert (ma is None) == (mb is None)
        if ma is None:
            continue
        assert ma.iterations_run == mb.iterations_run
        assert np.array_equal(ma.loss_d, mb.loss_d)
        assert np.array_equal(ma.loss_g, mb.loss_g)
        nets = lambda m: (m.mixer, m.decoder, m.encoder, m.head)
        for na, nb in zip(nets(ma), nets(mb)):
            for la, lb in zip(na.layers, nb.layers):
                assert la.keys() == lb.keys()
                for key in la:
                    assert np.array_equal(la[key], lb[key])


@pytest.mark.parametrize("kind", ["vector", "matrix"])
def test_train_se_ctes_same_result_on_one_cpu(monkeypatch, one_blas_thread,
                                              kind):
    if kind == "vector":
        ds = small_dataset(seed=5)
        cfg = EnsembleConfig(k=5, h=2,
                             train=TrainConfig(iterations=30, batch_size=10,
                                               seed=11),
                             clf=ForestConfig(n_trees=15))
    else:
        ds = gen_scalar_to_matrix_dataset(GpSimConfig(
            grid=4, images_per_category=6, categories=2, char_dim=3, seed=1))
        cfg = EnsembleConfig(k=5, h=2, train=TrainConfig(
            iterations=4, batch_size=6, conv_channels=(2, 3), seed=12),
            clf=ForestConfig(n_trees=5))
    pooled = train_se_ctes(ds, cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert parallel.usable_cpus() == 1
    assert_same_ensemble(train_se_ctes(ds, cfg), pooled)


def worker_pid(_):
    return os.getpid()


def pool_pids(tasks, n):
    with parallel.task_pool(tasks) as pool:
        return list(pool.map(worker_pid, range(n)))


def test_inline_executor_keeps_a_task_error_in_its_future():
    def fail():
        raise ValueError("task failed")

    future = parallel.InlineExecutor().submit(fail)
    assert future.done()
    with pytest.raises(ValueError, match="task failed"):
        future.result()
    assert isinstance(future.exception(), ValueError)


def nested_pool_stays_in_its_worker(_):
    return pool_pids(2, 2) == [os.getpid()] * 2


def test_task_pool_uses_worker_processes_that_do_not_nest(monkeypatch,
                                                         one_blas_thread):
    if parallel.usable_cpus() < 2:
        pytest.skip("needs two usable CPUs")
    with parallel.task_pool(4) as pool:
        assert os.getpid() not in list(pool.map(worker_pid, range(4)))
        assert list(pool.map(nested_pool_stays_in_its_worker, range(2))) \
            == [True] * 2
    # a BLAS running one thread per CPU already fills the CPUs
    for key in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    assert parallel.blas_threads() == parallel.usable_cpus()
    assert pool_pids(4, 2) == [os.getpid()] * 2
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert pool_pids(4, 2) == [os.getpid()] * 2


def test_train_se_ctes_leaves_no_child_processes(monkeypatch,
                                                 one_blas_thread):
    ds = small_dataset()
    train_se_ctes(ds, tiny_ensemble_config(k=3, h=1, seed=4))
    assert multiprocessing.active_children() == []

    def always_fails(dataset, config):
        raise TrainingDiverged("forced")

    monkeypatch.setattr(ensemble_mod, "train_ctes", always_fails)
    with pytest.raises(EnsembleError):
        train_se_ctes(ds, tiny_ensemble_config(k=3, h=1, seed=4))
    assert multiprocessing.active_children() == []


def ens_of_constants(values, h=None):
    ds = small_dataset()
    models = [constant_model(ds, v, seed=i) for i, v in enumerate(values)]
    k = len(models)
    h = h or (k - 1) // 2
    return EnsembleModel(models=models, scores=np.linspace(1, 0.5, k),
                         selected=list(range(h)), diagnostics=[None] * k)


def test_ensemble_synthesize_even_split():
    ens = ens_of_constants([10.0, 20.0, 30.0, 40.0, 50.0], h=2)
    out = ensemble_synthesize(ens, np.repeat([[0.5]], 200, 0),
                              rng=np.random.default_rng(0))
    assert out.shape == (200, 2)
    assert np.sum(np.all(out == 10.0, axis=1)) == 100
    assert np.sum(np.all(out == 20.0, axis=1)) == 100


def test_ensemble_synthesize_remainder_to_lowest_index():
    ens = ens_of_constants([10.0, 20.0, 30.0, 40.0, 50.0], h=2)
    out = ensemble_synthesize(ens, np.repeat([[0.5]], 201, 0),
                              rng=np.random.default_rng(0))
    assert np.sum(np.all(out == 10.0, axis=1)) == 101
    assert np.sum(np.all(out == 20.0, axis=1)) == 100


def test_ensemble_serves_fewer_rows_than_members():
    # one row and h=2: the second member's share is empty and is skipped
    ens = ens_of_constants([10.0, 20.0, 30.0, 40.0, 50.0], h=2)
    one = np.array([[0.5]])
    out = ensemble_synthesize(ens, one, rng=np.random.default_rng(0))
    assert np.array_equal(out, [[10.0, 10.0]])
    assert np.array_equal(sample_model(ens, one, np.random.default_rng(0)),
                          out)


def test_matrix_ensemble_serves_one_row():
    # the conv decoder cannot take an empty batch, so empty shares must
    # never reach it
    ds = gen_scalar_to_matrix_dataset(GpSimConfig(
        grid=4, images_per_category=6, categories=2, char_dim=3, seed=0))
    ens = train_se_ctes(ds, EnsembleConfig(
        k=5, h=2, train=TrainConfig(iterations=2, batch_size=6,
                                    conv_channels=(2, 3), seed=4),
        clf=ForestConfig(n_trees=3)))
    out = sample_model(ens, ds.x[:1], rng=np.random.default_rng(0))
    assert out.shape == (1, 16)
    assert np.all(np.isfinite(out))
    with pytest.raises(ValueError):
        sample_model(ens, ds.x[:0], rng=np.random.default_rng(0))


def test_ensemble_synthesize_mixture_mean_of_constants():
    # selected members emit constants 4 and 8
    ens = ens_of_constants([4.0, 8.0, 0.0, 1.0, 2.0], h=2)
    out = ensemble_synthesize(ens, np.repeat([[0.5]], 1000, 0),
                              rng=np.random.default_rng(1))
    assert np.allclose(out.mean(axis=0), 6.0)


def test_ensemble_synthesize_validation():
    ens = ens_of_constants([1.0, 2.0, 3.0], h=1)
    with pytest.raises(ValueError):
        ensemble_synthesize(ens, np.empty((0, 1)), np.random.default_rng(0))
    with pytest.raises(ConfigError, match="selected"):
        EnsembleModel(models=ens.models, scores=ens.scores, selected=[],
                      diagnostics=[None] * 3)
    empty = copy.copy(ens)  # emptied after the construction checks
    empty.selected = []
    with pytest.raises(EnsembleError):
        ensemble_synthesize(empty, np.repeat([[0.5]], 10, 0),
                            np.random.default_rng(0))


def test_ensemble_synthesize_mixture_mean_matches_member_means():
    # trained members: ensemble mean ~ arithmetic mean of member means
    ds = small_dataset(n=80)
    cfg = EnsembleConfig(k=3, h=1,
                         train=TrainConfig(iterations=150, batch_size=16,
                                           seed=9),
                         clf=ForestConfig(n_trees=20))
    ens = train_se_ctes(ds, cfg)
    x = np.array([[0.5]])
    pooled = ensemble_synthesize(ens, np.repeat(x, 4000, 0),
                                 rng=np.random.default_rng(0))
    from sectes.ctes import synthesize_each
    member_means = []
    member_vars = []
    for i in ens.selected:
        draws = synthesize_each(ens.models[i], np.repeat(x, 4000, 0),
                                rng=np.random.default_rng(i + 1))
        member_means.append(draws.mean(axis=0))
        member_vars.append(draws.var(axis=0))
    target = np.mean(member_means, axis=0)
    h = len(ens.selected)
    se = np.sqrt(pooled.var(axis=0) / len(pooled)
                 + np.sum(member_vars, axis=0) / (h * h * 4000))
    assert np.all(np.abs(pooled.mean(axis=0) - target) <= 3 * se + 1e-12)
