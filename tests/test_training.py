import copy

import numpy as np
import pytest

from conftest import prepare_toy
from fact2question.autodiff import Tape, backprop
from fact2question.decoding import GenerationSession
from fact2question.errors import ContractError, NumericError, TrainingDivergedError
from fact2question.model import sequence_log_likelihood
from fact2question.training import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    train,
)


def test_clip_leaves_small_gradients_alone():
    grads = {"w": np.array([0.03, 0.04])}  # norm 0.05
    out = clip_gradients(grads, max_norm=0.1)
    assert np.array_equal(out["w"], grads["w"])


def test_clip_scales_to_max_norm():
    grads = {"w": np.array([3.0, 4.0])}  # norm 5
    out = clip_gradients(grads, max_norm=0.1)
    assert np.allclose(out["w"], [0.06, 0.08])
    total = np.sqrt(sum(np.sum(g * g) for g in out.values()))
    assert total <= 0.1 + 1e-12


def test_clip_zero_gradients_unchanged():
    grads = {"w": np.zeros(3)}
    assert np.array_equal(clip_gradients(grads, max_norm=0.1)["w"], np.zeros(3))


def test_clip_global_norm_spans_parameters():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    out = clip_gradients(grads, max_norm=1.0)
    total = np.sqrt(sum(np.sum(g * g) for g in out.values()))
    assert total == pytest.approx(1.0)


def test_clip_rejects_non_finite():
    with pytest.raises(TrainingDivergedError):
        clip_gradients({"w": np.array([np.nan])}, max_norm=0.1)


def test_clip_rejects_bad_max_norm():
    with pytest.raises(ContractError):
        clip_gradients({"w": np.zeros(1)}, max_norm=0.0)


def test_adam_zero_gradient_zero_moments_is_noop():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState(learning_rate=0.01)
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_magnitude_is_learning_rate():
    params = {"w": np.array([0.0, 0.0])}
    state = AdamState(learning_rate=0.01)
    adam_step(params, {"w": np.array([0.3, -7.0])}, state)
    # bias-corrected first step is lr * g/|g| per coordinate (up to eps)
    assert np.allclose(params["w"], [-0.01, 0.01], atol=1e-6)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(5)
        params = {"w": np.zeros(4)}
        state = AdamState(learning_rate=0.01)
        for _ in range(10):
            adam_step(params, {"w": rng.normal(size=4)}, state)
        return params["w"]
    assert np.array_equal(run(), run())


def test_adam_rejects_shape_mismatch():
    params = {"w": np.zeros(2)}
    with pytest.raises(ContractError):
        adam_step(params, {"w": np.zeros(3)}, AdamState(learning_rate=0.01))


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        TrainConfig(patience=0)
    with pytest.raises(ContractError, match="max_steps"):
        TrainConfig(max_steps=-1)
    with pytest.raises(ContractError, match="eval_every"):
        TrainConfig(eval_every=-1)


@pytest.mark.parametrize("field, value, message", [
    ("learning_rate", -1.0, "learning rate must be >= 0, got -1.0"),
    ("learning_rate", float("nan"), "learning rate must be >= 0, got nan"),
    ("learning_rate", float("inf"), "learning rate must be finite, got inf"),
    ("clip_norm", 0.0, "clip norm must be positive, got 0.0"),
    ("clip_norm", -0.1, "clip norm must be positive, got -0.1"),
    ("clip_norm", float("nan"), "clip norm must be positive, got nan"),
])
def test_train_config_rejects_bad_step_settings(field, value, message):
    with pytest.raises(ContractError, match=f"^{message}$"):
        TrainConfig(**{field: value})
    TrainConfig(learning_rate=0.0, clip_norm=1e-9)  # the boundaries are allowed


def test_train_zero_lr_keeps_parameters(toy_prepared):
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=4, hidden=8, d_enc=4, d_dec=4, seed=1)
    before = params.copy_values()
    config = TrainConfig(learning_rate=0.0, max_steps=3, patience=5,
                         eval_every=10, seed=0)
    result = train(prepared, prepared, params, config, input_vocab, output_vocab)
    for name, tensor in result.params.tensors.items():
        assert np.array_equal(tensor, before[name])


def test_train_is_deterministic_for_fixed_seed():
    def run():
        prepared, input_vocab, output_vocab, params = prepare_toy(
            n_pairs=4, hidden=8, d_enc=4, d_dec=4, seed=2)
        config = TrainConfig(max_steps=5, patience=5, eval_every=10, seed=7)
        result = train(prepared, prepared, params, config, input_vocab,
                       output_vocab)
        return result.params.copy_values()
    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_train_step_sums_the_batch_gradients_in_example_order():
    # a batch of 4 in train's shuffled order: each example's backprop
    # result (its gate gradients are row blocks of one stack gradient) is
    # copied before the sum, so the in-place batch sum must match it bit
    # for bit
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=4, hidden=8, d_enc=4, d_dec=4, seed=3)
    config = TrainConfig(batch_size=4, max_steps=1, seed=5)
    before = params.copy_values()
    expected = copy.deepcopy(params)
    batch = [prepared[i][1]
             for i in np.random.default_rng(config.seed).permutation(4)]
    summed = {}
    for ph in batch:
        with Tape() as tape:
            tape.watch(expected.tensors)
            ll = sequence_log_likelihood(ph.fact, list(ph.tokens), expected,
                                         input_vocab, output_vocab)
        for name, g in backprop(tape, ll).items():
            summed[name] = g.copy() if name not in summed else summed[name] + g
    tokens = sum(len(ph.tokens) for ph in batch)
    scaled = {name: g / -tokens for name, g in summed.items()}
    adam_step(expected.tensors, clip_gradients(scaled, config.clip_norm),
              AdamState(config.learning_rate))

    result = train(prepared, prepared, params, config, input_vocab,
                   output_vocab, score_fn=lambda p: 0.0)
    assert result.steps == 1
    for name, tensor in result.params.tensors.items():
        assert np.array_equal(tensor, expected.tensors[name]), name
        assert not np.array_equal(tensor, before[name]), name


def test_train_stops_on_stuck_metric():
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=4, hidden=8, d_enc=4, d_dec=4, seed=3)
    config = TrainConfig(max_steps=0, patience=1, eval_every=1, seed=0)
    calls = []

    def stuck(params):
        calls.append(1)
        return 0.0

    train(prepared, prepared, params, config, input_vocab, output_vocab,
          score_fn=stuck)
    assert len(calls) == 2  # patience 1: first sets the best, second stops


def test_train_returns_best_checkpoint_and_log(toy_prepared):
    prepared, input_vocab, output_vocab, params = toy_prepared
    scores = iter([1.0, 3.0, 2.0, 2.0, 2.0, 2.0])
    snapshots = []

    def scripted(params):
        snapshots.append(params.copy_values())
        return next(scores)

    config = TrainConfig(max_steps=0, patience=3, eval_every=1, seed=0)
    result = train(prepared, prepared, params, config, input_vocab,
                   output_vocab, score_fn=scripted)
    assert result.best_score == 3.0
    # the returned checkpoint is the one scored 3.0 (second evaluation)
    for name, tensor in result.params.tensors.items():
        assert np.array_equal(tensor, snapshots[1][name])
    assert len(result.log_lines) == len(snapshots)
    for line in result.log_lines:
        step, nll, score, wall = line.split("\t")
        int(step), float(nll), float(score), float(wall)


def _scripted_run(scores, patience):
    """Train with eval_every 1 and a score_fn that plays back scores; return
    the result and the weights each evaluation saw."""
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=4, hidden=8, d_enc=4, d_dec=4, seed=5)
    scores, snapshots = iter(scores), []

    def scripted(p):
        snapshots.append(p.copy_values())
        return next(scores)

    config = TrainConfig(max_steps=0, patience=patience, eval_every=1, seed=0)
    result = train(prepared, prepared, params, config, input_vocab, output_vocab,
                   score_fn=scripted)
    return result, snapshots


def test_train_tie_keeps_newer_checkpoint_but_is_no_improvement():
    result, snapshots = _scripted_run([1.0, 1.0, 1.0], patience=2)
    assert len(snapshots) == 3 and result.steps == 3
    assert result.best_score == 1.0
    assert not np.array_equal(snapshots[1]["out_proj"], snapshots[2]["out_proj"])
    for name, tensor in result.params.tensors.items():
        assert np.array_equal(tensor, snapshots[2][name])


def test_train_improvement_resets_patience():
    result, snapshots = _scripted_run([1.0, 1.0, 2.0, 2.0, 2.0], patience=2)
    assert len(snapshots) == 5 and result.steps == 5
    assert result.best_score == 2.0
    for name, tensor in result.params.tensors.items():
        assert np.array_equal(tensor, snapshots[4][name])


@pytest.mark.parametrize("k", [1, 3])
def test_train_numeric_fault_in_validation_is_a_divergence(k):
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=4, hidden=8, d_enc=4, d_dec=4, seed=6)
    initial, snapshots = params.copy_values(), []

    def faulty(p):
        snapshots.append(p.copy_values())
        if len(snapshots) == k:
            raise NumericError("non-finite values in the fact encoding")
        return float(len(snapshots))  # every earlier evaluation improves

    config = TrainConfig(max_steps=10, patience=10, eval_every=1, seed=0)
    with pytest.raises(TrainingDivergedError, match=(
            f"^training diverged at step {k}: non-finite values in the fact "
            "encoding$")) as exc_info:
        train(prepared, prepared, params, config, input_vocab, output_vocab,
              score_fn=faulty)
    exc = exc_info.value
    assert [line.split("\t")[0] for line in exc.log_lines] == [
        str(step) for step in range(1, k)]
    # the best checkpoint: the weights the last good evaluation saw, or the
    # initial weights when there was none
    best = snapshots[k - 2] if k > 1 else initial
    for name, tensor in exc.checkpoint.tensors.items():
        assert np.array_equal(tensor, best[name])


def test_train_divergence_aborts_with_checkpoint():
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=4, hidden=8, d_enc=4, d_dec=4, seed=4)
    # poison the weights mid-run via the scorer hook
    config = TrainConfig(max_steps=10, patience=10, eval_every=1, seed=0)

    def sabotage(p):
        p.tensors["out_proj"][:] = np.nan
        return 0.0

    with pytest.raises(TrainingDivergedError) as exc_info:
        train(prepared, prepared, params, config, input_vocab, output_vocab,
              score_fn=sabotage)
    assert exc_info.value.checkpoint is not None


def test_small_overfit_reduces_nll_and_reproduces_questions():
    # scaled-down overfit (the full 20-pair criterion runs in acceptance)
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=6, hidden=32, d_enc=6, d_dec=8, seed=0)
    config = TrainConfig(max_steps=800, patience=50, eval_every=200, seed=0)
    result = train(prepared, prepared, params, config, input_vocab, output_vocab)

    total_nll = total_tokens = 0.0
    for _, ph in prepared:
        ll = sequence_log_likelihood(ph.fact, list(ph.tokens), result.params,
                                     input_vocab, output_vocab)
        total_nll -= ll.item()
        total_tokens += len(ph.tokens)
    assert total_nll / total_tokens < 0.5

    session = GenerationSession(result.params, input_vocab, output_vocab,
                                max_len=12)
    for pair, _ in prepared:
        words = session.to_words(session.greedy_indices(pair.fact), pair.fact)
        assert words == list(pair.question_tokens)
