import json
import math
import tracemalloc

import numpy as np
import pytest

import nucsplit.volume as volume
from nucsplit.partition import Bipartition, split_blocks
from nucsplit.volume import (
    Component,
    Volume,
    connected_components,
    gaussian_smooth,
    read_rvol,
    write_rvol,
)
from oracles import gaussian_kernel_1d


def make_volume(size, spacing=(1.0, 1.0, 1.0), seed=0, dtype=np.uint16, hi=255):
    rng = np.random.default_rng(seed)
    sx, sy, sz = size
    return Volume(rng.integers(0, hi, size=(sz, sy, sx), dtype=dtype), spacing)


def test_flat_layout_is_x_fastest():
    sx, sy, sz = 4, 3, 2
    v = Volume.from_flat(np.arange(sx * sy * sz, dtype=np.uint16), (sx, sy, sz))
    for z in range(sz):
        for y in range(sy):
            for x in range(sx):
                assert v.data[z, y, x] == x + sx * (y + sy * z)
    assert np.array_equal(v.data.ravel(), np.arange(sx * sy * sz))


def test_volume_validation():
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2, 2), dtype=np.uint8), spacing=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        Volume.from_flat(np.zeros(7, dtype=np.uint8), (2, 2, 2))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_volume_rejects_spacing_that_is_not_finite_and_positive(bad):
    with pytest.raises(ValueError, match="spacing must be finite and > 0"):
        Volume(np.zeros((2, 2, 2), dtype=np.uint8), spacing=(1.0, 1.0, bad))


@pytest.mark.parametrize("spacing", [(1.0, 1.0), (1.0, 2.0, 3.0, 9.0)])
def test_volume_rejects_spacing_of_the_wrong_length(spacing):
    with pytest.raises(ValueError, match=f"^spacing must hold 3 values, got {len(spacing)}$"):
        Volume(np.zeros((2, 2, 2), dtype=np.uint8), spacing=spacing)


@pytest.mark.parametrize("sigma", [3.0, 1e9])
def test_gaussian_smooth_rejects_a_kernel_radius_above_the_longest_axis(monkeypatch, sigma):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(volume.ndimage, "gaussian_filter1d", no_kernel)
    v = make_volume((8, 6, 4))  # longest axis 8: ceil(3 sigma) may reach 8, so sigma up to 8/3
    with pytest.raises(ValueError, match=r"^sigma_smooth = .* above the volume's longest axis of 8: "
                                         r"sigma_smooth must be at most 2\.66667$"):
        gaussian_smooth(v, sigma)


def test_gaussian_smooth_takes_a_kernel_radius_of_the_longest_axis():
    v = make_volume((8, 6, 4))
    got = gaussian_smooth(v, 8 / 3)  # radius 8
    assert np.allclose(got.data, smooth_reference(v.data, 8 / 3), atol=1e-3)


def test_gaussian_kernel_shape_and_mass():
    for sigma in (0.3, 0.7, 1.0, 1.9, 3.2):
        k = gaussian_kernel_1d(sigma)
        assert len(k) == 2 * int(np.ceil(3 * sigma)) + 1
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(k, k[::-1])
        assert k.argmax() == len(k) // 2


def smooth_reference(data, sigma):
    """Direct separable convolution with replicated edges, the slow way."""
    k = gaussian_kernel_1d(sigma)
    r = len(k) // 2
    out = data.astype(np.float64)
    for axis in range(3):
        padded = np.pad(out, [(r, r) if a == axis else (0, 0) for a in range(3)], mode="edge")
        acc = np.zeros_like(out)
        for i, w in enumerate(k):
            sl = [slice(None)] * 3
            sl[axis] = slice(i, i + out.shape[axis])
            acc += w * padded[tuple(sl)]
        out = acc
    return out


def test_gaussian_smooth_matches_direct_convolution():
    for seed, sigma in [(0, 0.8), (1, 1.9), (2, 2.5)]:
        v = make_volume((9, 7, 6), seed=seed)
        got = gaussian_smooth(v, sigma)
        assert got.data.dtype == np.float32
        assert got.spacing == v.spacing
        ref = smooth_reference(v.data, sigma)
        assert np.allclose(got.data, ref, atol=1e-3)


def test_gaussian_smooth_sigma_zero_is_identity():
    v = make_volume((5, 4, 3), seed=3)
    assert gaussian_smooth(v, 0.0) is v
    with pytest.raises(ValueError):
        gaussian_smooth(v, -1.0)


def test_gaussian_smooth_preserves_constant():
    v = Volume(np.full((6, 6, 6), 37, dtype=np.uint16))
    out = gaussian_smooth(v, 1.9)
    assert np.allclose(out.data, 37.0, atol=1e-3)


@pytest.mark.parametrize("slabs", [1, 3])
def test_gaussian_smooth_holds_one_float32_volume(slabs):
    """The three 1-D passes filter one float32 copy in place, slab by slab:
    the peak above the input is that copy, 4 bytes per voxel."""
    v = make_volume((96, 64, 24), seed=4)
    tracemalloc.start()
    try:
        gaussian_smooth(v, 1.5, slabs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.1 * v.data.size


@pytest.mark.parametrize("slabs", [1, 3])
def test_gaussian_smooth_leaves_a_float32_input_unchanged(slabs):
    data = make_volume((12, 10, 9), seed=5).data.astype(np.float32)
    v = Volume(data.copy())
    out = gaussian_smooth(v, 1.2, slabs)
    assert out.data is not v.data
    assert np.array_equal(v.data, data)


def brute_components(mask):
    """6-connected flood fill with explicit neighbor lists, for checking the fast path."""
    sz, sy, sx = mask.shape
    offs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for z in range(sz):
        for y in range(sy):
            for x in range(sx):
                if not mask[z, y, x] or seen[z, y, x]:
                    continue
                stack = [(x, y, z)]
                seen[z, y, x] = True
                comp = []
                while stack:
                    cx, cy, cz = stack.pop()
                    comp.append((cx, cy, cz))
                    for dx, dy, dz in offs:
                        nx, ny, nz = cx + dx, cy + dy, cz + dz
                        if 0 <= nx < sx and 0 <= ny < sy and 0 <= nz < sz:
                            if mask[nz, ny, nx] and not seen[nz, ny, nx]:
                                seen[nz, ny, nx] = True
                                stack.append((nx, ny, nz))
                comps.append(sorted(comp, key=lambda p: (p[2], p[1], p[0])))
    return comps


def test_connected_components_against_flood_fill():
    rng = np.random.default_rng(11)
    for trial in range(12):
        mask = Volume((rng.random((6, 7, 8)) < 0.35).astype(np.uint8))
        got = connected_components(mask)
        want = brute_components(mask.data != 0)
        assert len(got) == len(want)
        for g, w in zip(got, want):  # same list order: scan order of first voxels
            assert [tuple(r) for r in g.coords] == w


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.float32])
def test_connected_components_take_every_nonzero_voxel(dtype):
    rng = np.random.default_rng(19)
    data = np.where(rng.random((6, 7, 8)) < 0.4, rng.integers(1, 250, (6, 7, 8)), 0).astype(dtype)
    if dtype == np.float32:
        odd = rng.choice(np.array([np.nan, -0.0, -3.5, 0.25], dtype=np.float32), size=data.shape)
        data = np.where(rng.random(data.shape) < 0.3, odd, data)
        assert np.isnan(data).any() and np.signbit(data[data == 0]).any()
    got = connected_components(Volume(data))
    assert [[tuple(r) for r in c.coords] for c in got] == brute_components(data != 0)


def test_connected_components_make_no_copy_of_the_mask():
    """The peak is ndimage.label's int32 labels (4 bytes per voxel) plus the
    pieces' coordinates; a bool copy of the mask would add one byte more."""
    g = np.indices((64, 64, 64))
    mask = np.zeros((64, 64, 64), dtype=np.uint8)
    for c in ((10, 12, 14), (40, 20, 33), (50, 50, 50), (20, 45, 30)):
        mask |= ((g - np.array(c)[:, None, None, None]) ** 2).sum(axis=0) <= 25
    v = Volume(mask)
    tracemalloc.start()
    try:
        comps = connected_components(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(comps) == 4
    assert peak < 4.5 * mask.size


def test_component_ids_follow_scan_order():
    data = np.zeros((1, 1, 7), dtype=np.uint8)
    data[0, 0, [0, 3, 4, 6]] = 1
    comps = connected_components(Volume(data))
    assert [len(c) for c in comps] == [1, 2, 1]
    assert [tuple(c.coords[0]) for c in comps] == [(0, 0, 0), (3, 0, 0), (6, 0, 0)]


def test_connected_components_empty_and_full():
    empty = Volume(np.zeros((3, 3, 3), dtype=np.uint8))
    assert connected_components(empty) == []
    full = Volume(np.ones((2, 2, 2), dtype=np.uint8))
    comps = connected_components(full)
    assert len(comps) == 1 and len(comps[0]) == 8


def test_pieces_keep_scan_order_whatever_ids_label_gives(monkeypatch):
    real_label = volume.ndimage.label
    rng = np.random.default_rng(8)
    permuted = []

    def shuffled_label(mask, structure=None):
        lab, n = real_label(mask, structure=structure)
        ids = np.concatenate([[0], 1 + rng.permutation(n)]).astype(lab.dtype)
        permuted.append(n > 1 and (ids != np.arange(n + 1)).any())
        return ids[lab], n

    monkeypatch.setattr(volume.ndimage, "label", shuffled_label)
    for _ in range(6):
        mask = rng.random((6, 7, 8)) < 0.35
        got = connected_components(Volume(mask.astype(np.uint8)))
        assert [[tuple(r) for r in c.coords] for c in got] == brute_components(mask)

    # each side of a random two-way split of a solid box, pieces merged in scan order
    box = np.ones((5, 6, 7), dtype=bool)
    c = connected_components(Volume(box.astype(np.uint8)))[0]
    side = (rng.random(len(c)) < 0.5).astype(np.uint8)
    b = Bipartition(side, 0.0, (int((side == 0).sum()), int(side.sum())))
    want = []
    for s in (0, 1):
        mask = np.zeros(box.shape, dtype=bool)
        on = c.coords[side == s]
        mask[on[:, 2], on[:, 1], on[:, 0]] = True
        want += brute_components(mask)
    want.sort(key=lambda piece: piece[0][::-1])
    got = [[tuple(r) for r in p.coords] for p in split_blocks(c, b)]
    assert len(got) > 2 and got == want
    assert sum(permuted) >= 6


def test_rvol_roundtrip(tmp_path):
    for code, dtype in [("u8", np.uint8), ("u16", np.uint16), ("u32", np.uint32)]:
        v = make_volume((7, 5, 3), spacing=(0.5, 0.5, 2.0), seed=21, dtype=dtype)
        path = str(tmp_path / f"vol_{code}.rvol")
        write_rvol(path, v)
        back = read_rvol(path)
        assert back == v


def test_rvol_f32_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    v = Volume(rng.random((3, 4, 5)).astype(np.float32), spacing=(1.0, 1.0, 3.5))
    path = str(tmp_path / "vol.rvol")
    write_rvol(path, v)
    assert read_rvol(path) == v


def test_rvol_payload_is_little_endian_scan_order(tmp_path):
    v = Volume.from_flat(np.arange(8, dtype=np.uint16), (2, 2, 2))
    path = str(tmp_path / "tiny.rvol")
    write_rvol(path, v)
    raw = open(path, "rb").read()
    assert raw == b"".join(int(i).to_bytes(2, "little") for i in range(8))


def test_rvol_header_errors(tmp_path):
    v = make_volume((4, 3, 2), seed=1)
    path = str(tmp_path / "vol.rvol")
    write_rvol(path, v)
    good = json.load(open(path + ".json"))

    def read_with(**fields):
        header = {k: w for k, w in {**good, **fields}.items() if w is not None}
        json.dump(header, open(path + ".json", "w"))
        return read_rvol(path)

    bad = [
        ("spacing", None, "missing field 'spacing'"),
        ("spacing", [1, 1], "spacing must be three numbers"),
        ("spacing", 1.0, "spacing must be three numbers"),
        ("spacing", [1, "1", 1], "spacing must be three numbers"),
        ("spacing", [1, 0, 1], "spacing must be finite and > 0"),
        ("size", [4.5, 3, 2], "size must be three integers >= 1"),
        ("size", ["4", 3, 2], "size must be three integers >= 1"),
        ("size", [True, 3, 2], "size must be three integers >= 1"),
        ("size", 5, "size must be three integers >= 1"),
        ("size", [4, 3], "size must be three integers >= 1"),
        ("size", [-4, -3, 2], "size must be three integers >= 1"),
        ("dtype", ["u8"], "dtype must be one of"),
        ("dtype", "i16", "dtype must be one of"),
    ]
    for field, value, message in bad:
        with pytest.raises(ValueError, match=message) as err:
            read_with(**{field: value})
        assert str(err.value).startswith(f"{path}.json: ")
    assert read_with() == v

    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(ValueError, match="bytes"):
        read_rvol(path)


def test_rvol_read_holds_the_payload_once(tmp_path):
    v = Volume(np.zeros((64, 256, 256), dtype=np.uint16))
    path = str(tmp_path / "big.rvol")
    write_rvol(path, v)
    payload = v.data.nbytes
    tracemalloc.start()
    try:
        back = read_rvol(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == v
    assert peak < 1.1 * payload


def test_rvol_write_makes_no_copy_of_the_payload(tmp_path):
    data = (np.arange(64 * 256 * 256, dtype=np.uint32) % 65521).astype(np.uint16).reshape(64, 256, 256)
    v = Volume(data)
    path = str(tmp_path / "big.rvol")
    tracemalloc.start()
    try:
        write_rvol(path, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the payload is 8 MB
    assert open(path, "rb").read() == data.astype("<u2").tobytes()


def test_component_scan_key():
    c = Component(np.array([[1, 2, 3], [2, 2, 3]], dtype=np.int32))
    assert c.scan_key() == (3, 2, 1)  # (z, y, x) of the first voxel
    assert all(type(v) is int for v in c.scan_key())
    # sorting by the key is sorting by the first voxel's flat offset x + Sx * (y + Sy * z)
    rng = np.random.default_rng(0)
    comps = [Component(rng.integers(0, 6, size=(3, 3)).astype(np.int32)) for _ in range(40)]
    size = (6, 6, 6)
    offset = [int(c.coords[0, 0] + size[0] * (c.coords[0, 1] + size[1] * c.coords[0, 2])) for c in comps]
    order = sorted(range(len(comps)), key=lambda i: comps[i].scan_key())
    assert [offset[i] for i in order] == sorted(offset)
