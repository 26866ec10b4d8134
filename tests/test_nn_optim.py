import numpy as np
import pytest

from _containerfile import edit_container
from _rep_ref import Linear
from lirrdet.autodiff import (
    SGD,
    CheckpointError,
    Conv2d,
    Module,
    Parameter,
    Tensor,
    backward,
    load_checkpoint,
    save_checkpoint,
)


class TestSGD:
    def test_single_step_no_momentum(self):
        p = Parameter(np.array([0.0]))
        p.grad = np.array([1.0])
        SGD([p], lr=0.1, momentum=0.0).step()
        assert p.data[0] == pytest.approx(-0.1)

    def test_none_grad_leaves_param_untouched(self):
        p = Parameter(np.array([5.0]))
        SGD([p], lr=0.1).step()
        assert p.data[0] == 5.0

    def test_two_steps_with_momentum(self):
        # v1 = 1, p = -1; v2 = 0.9 + 1 = 1.9, p = -2.9
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.9)
        for _ in range(2):
            p.grad = np.array([1.0])
            opt.step()
        assert p.data[0] == pytest.approx(-2.9)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="^lr must be finite"):
            SGD([Parameter(np.array([0.0]))], lr=lr)

    def test_invalid_hyperparams(self):
        p = Parameter(np.array([0.0]))
        with pytest.raises(ValueError):
            SGD([p], lr=-0.1)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)

    def test_lr_zero_is_noop(self):
        p = Parameter(np.array([2.0]))
        p.grad = np.array([1.0])
        SGD([p], lr=0.0).step()
        assert p.data[0] == 2.0

    def test_descends_quadratic(self):
        p = Parameter(np.array([3.0]))
        opt = SGD([p], lr=0.1, momentum=0.0)
        for _ in range(50):
            p.grad = None
            loss = p * p
            backward(loss)
            opt.step()
        assert abs(p.data[0]) < 1e-3


class _TwoLayer(Module):
    def __init__(self, rng):
        self.conv = Conv2d(1, 2, 3, padding=1, rng=rng)
        self.fc = Linear(2, 3, rng=rng)


class TestModule:
    def test_named_parameters_are_unique_and_ordered(self):
        m = _TwoLayer(np.random.default_rng(0))
        names = [n for n, _ in m.named_parameters()]
        assert names == ["conv.weight", "conv.bias", "fc.weight", "fc.bias"]

    def test_state_dict_round_trip(self):
        m1 = _TwoLayer(np.random.default_rng(1))
        m2 = _TwoLayer(np.random.default_rng(2))
        m2.load_state_dict(m1.state_dict())
        for (_, a), (_, b) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_rejects_shape_mismatch(self):
        m = _TwoLayer(np.random.default_rng(3))
        state = m.state_dict()
        state["fc.weight"] = np.zeros((5, 5), dtype=np.float32)
        with pytest.raises(ValueError):
            m.load_state_dict(state)

    def test_load_rejects_missing_key(self):
        m = _TwoLayer(np.random.default_rng(4))
        state = m.state_dict()
        del state["conv.weight"]
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_zero_grad(self):
        m = _TwoLayer(np.random.default_rng(5))
        for _, p in m.named_parameters():
            p.grad = np.ones_like(p.data)
        m.zero_grad()
        assert all(p.grad is None for _, p in m.named_parameters())


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        state = {
            "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
            "b.bias": rng.normal(size=7).astype(np.float32),
        }
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(state)
        for k in state:
            assert loaded[k].tobytes() == state[k].tobytes()

    def test_model_round_trip_bit_exact(self, tmp_path):
        m1 = _TwoLayer(np.random.default_rng(7))
        path = tmp_path / "model.bin"
        save_checkpoint(path, m1.state_dict())
        m2 = _TwoLayer(np.random.default_rng(8))
        m2.load_state_dict(load_checkpoint(path))
        for (_, a), (_, b) in zip(m1.named_parameters(), m2.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": np.ones(10, dtype=np.float32)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": np.ones(4, dtype=np.float32)})
        with open(path, "ab") as f:
            f.write(b"\x00\x00\x00\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda h: h.pop("dtype"), "dtype"),
        (lambda h: h.pop("params"), "params"),
        (lambda h: h.update(dtype="int8"), "dtype"),
        (lambda h: h["params"].pop(), "shape"),
        (lambda h: h.update(params=["4"]), "shape"),
        (lambda h: h.update(params=[[-4]]), "shape"),
        (lambda h: h.update(params=5), "params"),
    ])
    def test_bad_header_rejected(self, tmp_path, edit, match):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": np.ones(4, dtype=np.float32)})
        edit_container(path, header=edit)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_boolean_shape_entry_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": np.ones((1, 3), dtype=np.float32)})
        edit_container(path, header=lambda h: h.update(params=[[True, 3]]))
        with pytest.raises(CheckpointError, match="header 'params'.*expected an integer, got True"):
            load_checkpoint(path)

    # the second id is kept from when its match read "bad header"
    @pytest.mark.parametrize("header,match", [(b"[1, 2]", "not a JSON object"),
                                              pytest.param(b"not json", "invalid header",
                                                           id="not json-bad header")])
    def test_garbage_header_rejected(self, tmp_path, header, match):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(header + b"\n\x00\x00\x80\x3f")
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_duplicate_param_name_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"a": np.zeros(2), "b": np.ones(2)})
        edit_container(path, header=lambda h: h["blocks"][1].__setitem__(0, "a"))
        with pytest.raises(CheckpointError, match="'a' twice"):
            load_checkpoint(path)

    def test_mixed_dtypes_rejected(self, tmp_path):
        state = {"a": np.ones(2, dtype=np.float32), "b": np.ones(2, dtype=np.float64)}
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "x.bin", state)


class TestTrainingSmoke:
    def test_small_net_overfits_xor_style_split(self):
        rng = np.random.default_rng(9)
        x = Tensor(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=np.float32))
        labels = [0, 1, 1, 0]
        l1 = Linear(2, 8, rng=rng)
        l2 = Linear(8, 2, rng=rng)
        params = [p for _, p in l1.named_parameters()] + [p for _, p in l2.named_parameters()]
        opt = SGD(params, lr=0.5, momentum=0.9)
        from _risk_ref import softmax_cross_entropy

        loss_val = None
        for _ in range(300):
            for p in params:
                p.grad = None
            loss = softmax_cross_entropy(l2(l1(x).relu()), labels) * 0.25  # mean of 4 rows
            backward(loss)
            opt.step()
            loss_val = float(loss.data)
        assert loss_val < 0.05
