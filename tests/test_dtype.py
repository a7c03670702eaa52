"""The dtype pin: every model built in memory is float32 end to end.

One training step of every backbone, on both optimizer paths, must leave
its parameters, gradients and Adam moments float32, and both
``propagate()`` tables and the evaluator's scoring tables and score
blocks float32 too: one float64 constant anywhere in a step widens
everything downstream of it and doubles the bytes every kernel moves.
The out-of-core path is the exception, on purpose: it trains float64
``.npy`` memmaps in place, and must stay float64 without a copy.
"""

import numpy as np
import pytest

from repro.losses import get_loss, loss_names
from repro.models import MF, get_model, model_names
from repro.tensor import RowSparseGrad, ops
from repro.tensor import functional as F
from repro.train import (TrainConfig, Trainer, flush_model,
                         init_mmap_mf_tables, open_mmap_mf)
from repro.train.outofcore import ITEM_TABLE, USER_TABLE

MODES = ("dense", "sparse")


def _grad_dtype(grad):
    return (grad.values.dtype if isinstance(grad, RowSparseGrad)
            else np.asarray(grad).dtype)


def step_dtypes(model, loss, dataset, grad_mode: str, monkeypatch) -> dict:
    """The dtype of every array one ``Trainer.train_step`` touches: each
    graph node's value and the gradients its backward returns (a scatter
    back into a float32 table would hide a float64 gradient from the
    parameters), then the tables the model ends the step with."""
    found = {}

    def see(key, dtype):
        found.setdefault(key, set()).add(np.dtype(dtype))

    make_node = ops._node

    def recording_node(data, parents, backward):
        op = backward.__qualname__.split(".<locals>")[0]
        see(f"value of {op}", np.asarray(data).dtype)

        def recorded(g):
            grads = backward(g)
            for grad in grads:
                if grad is not None:
                    see(f"gradient of {op}", _grad_dtype(grad))
            return grads

        return make_node(data, parents, recorded)

    monkeypatch.setattr(ops, "_node", recording_node)
    trainer = Trainer(model, loss, dataset, TrainConfig(
        epochs=1, batch_size=32, n_negatives=4, grad_mode=grad_mode,
        seed=0))
    model.on_epoch_start(np.random.default_rng(0))
    trainer.train_step(next(iter(trainer.sampler.epoch())))
    monkeypatch.setattr(ops, "_node", make_node)
    for name, param in model.named_parameters():
        see(f"param {name}", param.data.dtype)
        if param.grad is not None:
            see(f"grad {name}", _grad_dtype(param.grad))
    assert any(key.startswith("grad ") for key in found), "no gradient"
    for i, (m, v) in enumerate(zip(trainer.optimizer._m,
                                   trainer.optimizer._v)):
        see(f"adam-m {i}", m.dtype)
        see(f"adam-v {i}", v.dtype)
    users, items = model.propagate()
    see("propagate users", users.dtype)
    see("propagate items", items.dtype)
    tables = model.scoring_tables()
    see("scoring users", tables.users.dtype)
    see("scoring items", tables.items.dtype)
    see("score block", tables.scores([0, 1]).dtype)
    return found


def assert_all(found: dict, dtype) -> None:
    """Every dtype ``found`` saw is ``dtype``."""
    wrong = {key: sorted(map(str, seen)) for key, seen in found.items()
             if seen != {np.dtype(dtype)}}
    assert not wrong, f"not {np.dtype(dtype)}: {wrong}"


@pytest.mark.parametrize("grad_mode", MODES)
@pytest.mark.parametrize("model_name", model_names())
def test_every_backbone_trains_in_float32(tiny_dataset, model_name,
                                          grad_mode, monkeypatch):
    model = get_model(model_name, tiny_dataset, dim=8, rng=0)
    assert_all(step_dtypes(model, get_loss("bsl"), tiny_dataset, grad_mode,
                           monkeypatch), np.float32)


@pytest.mark.parametrize("grad_mode", MODES)
@pytest.mark.parametrize("loss_name", loss_names())
def test_every_loss_trains_in_float32(tiny_dataset, loss_name, grad_mode,
                                      monkeypatch):
    model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8, rng=0)
    assert_all(step_dtypes(model, get_loss(loss_name), tiny_dataset,
                           grad_mode, monkeypatch), np.float32)


def test_the_pin_sees_one_float64_kernel(tiny_dataset, monkeypatch):
    """Control: the logistic kernel the BPR gradient runs through,
    planted back as a float64 ``empty_like``, must fail the pin."""
    def sigmoid_in_float64(z):
        out = np.empty_like(z, dtype=np.float64)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    monkeypatch.setattr(F, "_sigmoid_raw", sigmoid_in_float64)
    model = MF(tiny_dataset.num_users, tiny_dataset.num_items, dim=8, rng=0)
    found = step_dtypes(model, get_loss("bpr"), tiny_dataset, "dense",
                        monkeypatch)
    with pytest.raises(AssertionError, match="gradient of softplus"):
        assert_all(found, np.float32)


def _memmap_of(array):
    """The ``np.memmap`` an array is a view of, or None."""
    while array is not None and not isinstance(array, np.memmap):
        array = array.base
    return array


def test_out_of_core_tables_stay_float64_and_aliased(tiny_dataset,
                                                     tmp_path, monkeypatch):
    table_dir = init_mmap_mf_tables(tmp_path, tiny_dataset.num_users,
                                    tiny_dataset.num_items, 8, rng=0)
    model = open_mmap_mf(table_dir)
    found = step_dtypes(model, get_loss("bsl"), tiny_dataset, "sparse",
                        monkeypatch)
    assert_all(found, np.float64)
    flush_model(model)
    for name, file in (("user_embedding", USER_TABLE),
                       ("item_embedding", ITEM_TABLE)):
        data = getattr(model, name).weight.data
        mapped = _memmap_of(data)
        assert mapped is not None, f"{name} was copied out of its file"
        assert np.shares_memory(data, mapped)
        assert (table_dir / file).samefile(mapped.filename)
        # the step's update landed in the file itself
        np.testing.assert_array_equal(np.load(table_dir / file), data)
