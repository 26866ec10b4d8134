"""The file container under dataset splits and checkpoints: fuzzing through the
public loaders, bit-exact round trips, and atomic replacement of output files."""

import json
import re
import zlib
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lirrdet import cli, container
from lirrdet.autodiff import CheckpointError, load_checkpoint, save_checkpoint
from lirrdet.container import atomic_open
from lirrdet.detector import Detection, save_detections
from lirrdet.lirr import DomainLabel
from lirrdet.pipeline import RunReport
from lirrdet.synthgen import DatasetError, Sample, load_dataset, save_dataset

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6)


def _near(value):
    """Values of the same JSON type as `value`, which get past type checks."""
    if isinstance(value, str):
        return st.text(max_size=12)
    if isinstance(value, int):
        return st.integers(min(-1, value - 4), value + 4) | st.sampled_from([0, 2**31, 2**64])
    return st.nothing()


def _dataset_file(path):
    rng = np.random.default_rng(3)
    samples = [Sample(image=rng.random((1, 16, 16), dtype=np.float32),
                      gt_boxes=np.array([[1.0, 2.0, 9.5, 12.0]] * (i % 3)),
                      gt_classes=np.ones(i % 3, dtype=np.int64),
                      domain=DomainLabel(i % 2), image_id=100 + i) for i in range(3)]
    save_dataset(samples, path, config={"note": "fuzz"})


def _checkpoint_file(path):
    rng = np.random.default_rng(4)
    save_checkpoint(path, {"conv.weight": rng.normal(size=(4, 1, 3, 3)).astype(np.float32),
                           "conv.bias": rng.normal(size=4).astype(np.float32),
                           "scale": np.float32(rng.normal()).reshape(())})


FORMATS = {"dataset": (_dataset_file, load_dataset, DatasetError),
           "checkpoint": (_checkpoint_file, load_checkpoint, CheckpointError)}


@pytest.fixture(scope="module", params=sorted(FORMATS))
def fmt(request, tmp_path_factory):
    """(valid file bytes, scratch path, loader, error type) of one format."""
    make, load, error = FORMATS[request.param]
    path = tmp_path_factory.mktemp(request.param) / "file.bin"
    make(path)
    return path.read_bytes(), path, load, error


def _header_paths(node, prefix=()):
    """Every key/index path into a parsed JSON header."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _header_paths(child, prefix + (key,))


@FUZZ
@given(data=st.data())
def test_any_truncation_is_rejected(fmt, data):
    blob, path, load, error = fmt
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="length")])
    with pytest.raises(error):
        load(path)


@FUZZ
@given(data=st.data())
def test_any_bit_flip_in_a_block_is_rejected(fmt, data):
    blob, path, load, error = fmt
    body_start = blob.index(b"\n") + 1
    flipped = bytearray(blob)
    flipped[data.draw(st.integers(body_start, len(blob) - 1), label="offset")] ^= \
        1 << data.draw(st.integers(0, 7), label="bit")
    path.write_bytes(bytes(flipped))
    with pytest.raises(error, match="checksum"):
        load(path)


@FUZZ
@given(data=st.data())
def test_any_bit_flip_in_the_header_is_rejected(fmt, data):
    blob, path, load, error = fmt
    flipped = bytearray(blob)
    flipped[data.draw(st.integers(0, blob.index(b"\n") - 1), label="offset")] ^= \
        1 << data.draw(st.integers(0, 7), label="bit")
    path.write_bytes(bytes(flipped))
    with pytest.raises(error):
        load(path)


def test_changed_config_echo_is_rejected(tmp_path):
    # a one-bit flip turns "size": 64 into "size": 44, which still parses
    path = tmp_path / "data.bin"
    save_dataset([Sample(image=np.zeros((1, 2, 2), np.float32), gt_boxes=np.zeros((0, 4)),
                         gt_classes=np.zeros(0, np.int64), domain=DomainLabel.SOURCE, image_id=0)],
                 path, config={"scene": {"size": 64}})
    path.write_bytes(path.read_bytes().replace(b'"size": 64', b'"size": 44', 1))
    with pytest.raises(DatasetError, match="'header_crc32'"):
        load_dataset(path)


@FUZZ
@given(data=st.data())
def test_header_mutation_loads_or_raises_the_format_error(fmt, data):
    blob, path, load, error = fmt
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    *parent_keys, key = data.draw(st.sampled_from(list(_header_paths(header))), label="path")
    parent = header
    for k in parent_keys:
        parent = parent[k]
    if data.draw(st.booleans(), label="delete"):
        del parent[key]
    else:
        parent[key] = data.draw(_near(parent[key]) | JSON_VALUES, label="value")
    line = json.dumps(header).encode()
    path.write_bytes(line + blob[nl:])
    if line == blob[:nl]:
        load(path)
    else:
        with pytest.raises(error):
            load(path)


# a side: two distinct finite floats, low first, as load_dataset accepts them
_SIDE = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2,
                 unique=True).map(sorted)


@FUZZ
@given(images=hnp.arrays(np.float32, st.tuples(st.integers(1, 4), st.just(1), st.integers(1, 5),
                                                st.integers(1, 5))),
       boxes=st.lists(st.tuples(_SIDE, _SIDE).map(lambda s: [s[0][0], s[1][0], s[0][1], s[1][1]]),
                      max_size=3),
       image_id=st.integers(-2**63, 2**63 - 1))
def test_dataset_round_trips_bit_for_bit(tmp_path_factory, images, boxes, image_id):
    path = tmp_path_factory.mktemp("rt") / "data.bin"
    samples = [Sample(image=im, gt_boxes=np.array(boxes).reshape(-1, 4),
                      gt_classes=np.arange(len(boxes), dtype=np.int64),
                      domain=DomainLabel(i % 2), image_id=image_id - i) for i, im in enumerate(images)]
    save_dataset(samples, path, config={"note": "x"})
    ds = load_dataset(path)
    assert ds.config == {"note": "x"}
    for orig, back in zip(samples, ds.samples, strict=True):
        assert back.image.tobytes() == orig.image.tobytes() and back.image.shape == orig.image.shape
        assert back.gt_boxes.tobytes() == orig.gt_boxes.tobytes()
        assert back.gt_classes.tolist() == orig.gt_classes.tolist()
        assert (back.domain, back.image_id) == (orig.domain, orig.image_id)
    again = path.with_name("again.bin")
    save_dataset(ds.samples, again, config=ds.config)
    assert again.read_bytes() == path.read_bytes()


@FUZZ
@given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data(),
       names=st.lists(st.text(max_size=8), min_size=1, max_size=4, unique=True))
def test_checkpoint_round_trips_bit_for_bit(tmp_path_factory, dtype, data, names):
    path = tmp_path_factory.mktemp("rt") / "ckpt.bin"
    state = {n: data.draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                                 max_side=4)), label=repr(n))
             for n in names}
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert list(loaded) == names
    for n in names:
        assert loaded[n].dtype == state[n].dtype and loaded[n].shape == state[n].shape
        assert loaded[n].tobytes() == state[n].tobytes()
    again = path.with_name("again.bin")
    save_checkpoint(again, loaded)
    assert again.read_bytes() == path.read_bytes()


@FUZZ
@given(parts=st.lists(st.binary(max_size=24) | hnp.arrays(st.sampled_from(["u1", "<i4", ">f8"]),
                                                          hnp.array_shapes(min_dims=0, max_dims=2, min_side=0)),
                      max_size=5))
@example(parts=[])
@example(parts=[b"ab", np.arange(3, dtype="<i4"), bytearray(b"c"), np.zeros((2, 2)), memoryview(b"de")])
def test_list_block_is_its_parts_joined(tmp_path_factory, parts):
    d = tmp_path_factory.mktemp("parts")
    joined = b"".join(memoryview(p).tobytes() for p in parts)
    container.write(d / "list.bin", {"k": 1}, {"a": parts, "b": b"tail"})
    container.write(d / "one.bin", {"k": 1}, {"a": joined, "b": b"tail"})
    container.write(d / "yielded.bin", {"k": 1}, {"a": lambda: iter(parts), "b": b"tail"})
    raw = (d / "list.bin").read_bytes()
    assert raw == (d / "one.bin").read_bytes() == (d / "yielded.bin").read_bytes()
    assert json.loads(raw[:raw.index(b"\n")])["blocks"][0] == ["a", len(joined), zlib.crc32(joined)]
    header, blocks = container.read(d / "list.bin", ValueError)
    assert header == {"k": 1} and bytes(blocks["a"]) == joined and bytes(blocks["b"]) == b"tail"


@pytest.mark.parametrize("part", [np.arange(12.0).reshape(3, 4)[:, ::2], np.asfortranarray(np.ones((2, 3))),
                                  memoryview(b"abcdef")[::2]], ids=["strided", "fortran", "memoryview"])
def test_non_contiguous_part_raises_before_any_file(tmp_path, part):
    for block in ([b"ok", part], part, lambda: iter([b"ok", part])):
        with pytest.raises(BufferError):
            container.write(tmp_path / "x.bin", {}, {"a": b"first", "b": block})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("second", [b"other", b"longer"], ids=["same-size", "other-size"])
def test_a_callable_block_that_changes_between_passes_raises(tmp_path, second):
    path = tmp_path / "x.bin"
    path.write_bytes(b"old contents\n")
    passes = iter([[b"first"], [second]])
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: a block gave other bytes on its second pass"):
        container.write(path, {}, {"a": b"head", "b": lambda: next(passes)})
    assert path.read_bytes() == b"old contents\n"
    assert list(tmp_path.iterdir()) == [path]


class _Boom(Exception):
    pass


def _raw_write(path, monkeypatch):
    with atomic_open(path, "wb") as f:
        f.write(b"partial")
        raise _Boom


def _detections_write(path, monkeypatch):
    def records():
        yield 0, Detection((1.0, 2.0, 3.0, 4.0), 1, 0.5)
        raise _Boom
    save_detections(path, records())


def _report_write(path, monkeypatch):
    # json.dump streams, so the report is half written when it meets the object
    RunReport(config={"seed": 1, "zzz": object()}).save(path)


class _RaisingFile:
    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data)
        raise _Boom


def _cli_raising_on(monkeypatch, name):
    """Make the CLI's writes of files called `name` raise after their first write."""
    @contextmanager
    def opener(path, *args, **kwargs):
        with atomic_open(path, *args, **kwargs) as f:
            yield _RaisingFile(f) if Path(path).name == name else f
    monkeypatch.setattr(cli, "atomic_open", opener)


def _gen_write(path, monkeypatch):
    cfg = path.parent.parent / "bench.json"
    cfg.write_text(json.dumps({"scene": {"size": 16}, "source_count": 1, "target_train_small": 1,
                               "target_train_full": 1, "target_test_count": 1}))
    _cli_raising_on(monkeypatch, path.name)
    cli.main(["gen", "--out", str(path.parent), "--config", str(cfg)])


def _eval_write(path, monkeypatch):
    cfg = path.parent.parent / "cfg.json"
    cfg.write_text(json.dumps({"source_path": "s", "target_train_path": "t", "target_test_path": "e"}))
    monkeypatch.setattr(cli, "evaluate_checkpoint", lambda config, checkpoint_path: (
        SimpleNamespace(to_dict=lambda: {"ap": 0.5}), []))
    _cli_raising_on(monkeypatch, path.name)
    cli.main(["eval", "--config", str(cfg), "--out", str(path.parent)])


def _table_write(path, monkeypatch):
    report = path.parent.parent / "run_report.json"
    RunReport(config={"mode": "SDA", "label_budget": 5},
              final={"ap": 0.1, "ap50": 0.2, "ap75": 0.05}).save(report)
    _cli_raising_on(monkeypatch, path.name)
    cli.main(["report", str(report), "--out", str(path.parent)])


_SPLITS = ["source_train.bin", "target_test.bin", "target_train_full.bin", "target_train_small.bin"]


# (write, file it replaces, files the command writes before it)
@pytest.mark.parametrize("write,name,before", [
    (_raw_write, "out.file", []),
    (_detections_write, "out.file", []),
    (_report_write, "out.file", []),
    (_gen_write, "benchmark_config.json", _SPLITS),
    (_eval_write, "eval_report.json", []),
    (_table_write, "table.txt", []),
    (_table_write, "table.csv", ["table.txt"]),
], ids=["atomic_open", "detections.jsonl", "run_report.json", "benchmark_config.json",
        "eval_report.json", "table.txt", "table.csv"])
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, write, name, before):
    path = tmp_path / "out" / name
    path.parent.mkdir()
    path.write_bytes(b"old contents\n")
    with pytest.raises((_Boom, TypeError)):
        write(path, monkeypatch)
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in path.parent.iterdir()) == sorted([name, *before])
