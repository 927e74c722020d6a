"""Dense 3D scalar volumes with physical voxel spacing.

Arrays are stored C-ordered as ``data[z, y, x]`` so that ``data.ravel()``
walks the voxels x-fastest: flat offset of ``(x, y, z)`` is
``x + Sx * (y + Sy * z)``.  All coordinates in the public API are given as
``(x, y, z)`` triples.

Every 6-connected piece, of the foreground mask and of each side of a
split, comes from one labelling routine: ``ndimage.label``, the voxels
grouped by label in scan order, and the pieces sorted by their first
voxel.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

DTYPE_CODES = {
    "u8": np.uint8,
    "u16": np.uint16,
    "u32": np.uint32,
    "f32": np.float32,
}
_CODE_OF = {np.dtype(v): k for k, v in DTYPE_CODES.items()}
_SIX_CONNECTED = ndimage.generate_binary_structure(3, 1)


def check_spacing(spacing) -> tuple[float, float, float]:
    """The spacing as three floats; it must hold three values, each finite and > 0."""
    if len(spacing) != 3:
        raise ValueError(f"spacing must hold 3 values, got {len(spacing)}")
    spacing = (float(spacing[0]), float(spacing[1]), float(spacing[2]))
    if not all(math.isfinite(s) and s > 0 for s in spacing):
        raise ValueError(f"spacing must be finite and > 0, got {spacing}")
    return spacing


def check_int(name: str, value, low: int) -> None:
    """Reject a config value that is not an integer of at least ``low``, naming its field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


class Volume:
    """A 3D grid of scalars plus the physical length of one voxel step per axis.

    Treat instances as immutable once they are shared between pipeline stages.
    """

    __slots__ = ("data", "spacing")

    def __init__(self, data: np.ndarray, spacing=(1.0, 1.0, 1.0)):
        data = np.asarray(data)
        if data.ndim != 3 or data.size == 0:
            raise ValueError(f"volume data must be a non-empty 3D array, got shape {data.shape}")
        if data.dtype not in _CODE_OF:
            raise ValueError(f"unsupported dtype {data.dtype}; use one of {sorted(DTYPE_CODES)}")
        self.data = np.ascontiguousarray(data)
        self.spacing = check_spacing(spacing)

    @classmethod
    def from_flat(cls, flat, size, spacing=(1.0, 1.0, 1.0)) -> "Volume":
        sx, sy, sz = (int(s) for s in size)
        flat = np.asarray(flat)
        if flat.size != sx * sy * sz:
            raise ValueError(f"flat data has {flat.size} samples, size {size} needs {sx * sy * sz}")
        return cls(flat.reshape(sz, sy, sx), spacing)

    @property
    def size(self) -> tuple[int, int, int]:
        """(Sx, Sy, Sz)."""
        sz, sy, sx = self.data.shape
        return (sx, sy, sz)

    @property
    def dtype_code(self) -> str:
        return _CODE_OF[self.data.dtype]

    def __eq__(self, other):
        return (
            isinstance(other, Volume)
            and self.spacing == other.spacing
            and self.data.dtype == other.data.dtype
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self):
        return f"Volume(size={self.size}, spacing={self.spacing}, dtype={self.dtype_code})"


@dataclass(frozen=True)
class Component:
    """A 6-connected set of foreground voxels.

    ``coords`` is an (N, 3) integer array with columns (x, y, z), rows in
    x-fastest scan order.
    """

    coords: np.ndarray

    def __post_init__(self):
        if self.coords.ndim != 2 or self.coords.shape[1] != 3 or len(self.coords) == 0:
            raise ValueError("component coords must be a non-empty (N, 3) array")

    def __len__(self) -> int:
        return len(self.coords)

    def scan_key(self) -> tuple[int, int, int]:
        """``(z, y, x)`` of the first voxel: components sorted by it are in scan order."""
        x, y, z = (int(v) for v in self.coords[0])
        return (z, y, x)

    def bounding_box(self):
        # a column at a time: reducing the (N, 3) array along axis 0 is ~10x slower
        cols = self.coords.T
        return (np.array([c.min() for c in cols], dtype=cols.dtype),
                np.array([c.max() for c in cols], dtype=cols.dtype))


def slab_ranges(sz: int, m: int) -> list[tuple[int, int]]:
    """Split ``sz`` slices into ``m`` contiguous near-equal groups; the
    first groups take the remainder slices."""
    if not 1 <= m <= sz:
        raise ValueError(f"slab count must lie in [1, {sz}], got {m}")
    base, rem = divmod(sz, m)
    out = []
    z = 0
    for i in range(m):
        size = base + (1 if i < rem else 0)
        out.append((z, z + size))
        z += size
    return out


def gaussian_smooth(v: Volume, sigma: float, slabs: int = 1) -> Volume:
    """Separable Gaussian blur of each z range of ``slab_ranges(Sz, slabs)``
    on its own, with edge replication at the range's borders.

    The kernel standard deviation is in voxel units per axis.  ``sigma=0``
    returns the input volume unchanged; otherwise, a float32 copy of it,
    each slab filtered in place.  A kernel radius ``ceil(3 sigma)`` above
    the volume's longest axis is rejected before any kernel is built.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return v
    radius = int(np.ceil(3.0 * sigma))
    longest = max(v.data.shape)
    if radius > longest:
        raise ValueError(f"sigma_smooth = {sigma:g} needs a kernel radius of {radius} voxels, above the volume's "
                         f"longest axis of {longest}: sigma_smooth must be at most {longest / 3:g}")
    ranges = slab_ranges(v.data.shape[0], slabs)
    out = v.data.astype(np.float32)  # a copy even of float32 data: the input is never filtered
    for z_lo, z_hi in ranges:
        slab = out[z_lo:z_hi]
        for axis in range(3):
            ndimage.gaussian_filter1d(slab, sigma, axis=axis, mode="nearest", radius=radius, output=slab)
    return Volume(out, v.spacing)


def _pieces(mask: np.ndarray) -> list[np.ndarray]:
    """The (x, y, z) coordinates of each 6-connected piece of the nonzero
    voxels of a ``[z, y, x]`` array, rows in scan order, pieces in scan
    order of their first voxels."""
    lab, n = ndimage.label(mask, structure=_SIX_CONNECTED)
    flat = lab.ravel()
    nz = np.flatnonzero(flat)
    nz = nz[np.argsort(flat[nz], kind="stable")]  # groups by label, scan order within
    starts = np.searchsorted(flat[nz], np.arange(1, n + 2))
    first = nz[starts[:-1]]
    return [np.stack(np.unravel_index(nz[starts[i] : starts[i + 1]], mask.shape)[::-1], axis=1).astype(np.int32)
            for i in np.argsort(first)]


def connected_components(mask: Volume) -> list[Component]:
    """Split the foreground of a binary volume into maximal 6-connected
    sets, listed in scan order of their first voxels.  Every nonzero
    voxel is foreground, as ``ndimage.label`` reads it: NaN too, -0.0 not."""
    return [Component(coords) for coords in _pieces(mask.data)]


def paint_component(c: Component, pad: int = 0):
    """Binary array of the component inside its padded bounding box.

    Returns ``(box, origin)`` where ``origin`` is the (x, y, z) of box voxel
    (0, 0, 0) in volume coordinates (may be negative when padded).
    """
    lo, hi = c.bounding_box()
    origin = lo - pad
    shape = hi - lo + 1 + 2 * pad
    box = np.zeros((shape[2], shape[1], shape[0]), dtype=bool)
    rel = c.coords - origin
    box[rel[:, 2], rel[:, 1], rel[:, 0]] = True
    return box, origin


def write_rvol(path, v: Volume) -> None:
    """Write a volume as raw little-endian samples plus a JSON sidecar header.

    The samples go to ``path``, the header to ``path + '.json'``.
    """
    path = os.fspath(path)
    header = {"size": list(v.size), "spacing": list(v.spacing), "dtype": v.dtype_code}
    le = v.data.astype(v.data.dtype.newbyteorder("<"), copy=False)
    with open(path, "wb") as f:
        le.tofile(f)  # the array's own buffer, not a bytes copy of it
    with open(path + ".json", "w") as f:
        json.dump(header, f)
        f.write("\n")


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number", bool: "boolean",
               type(None): "null"}


def read_json_object(path) -> dict:
    """The JSON object in the file at ``path``; any other JSON value, or
    text that is not JSON, is a ``ValueError`` that names the file."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ValueError(f"{path} must hold a JSON object, found a JSON {_JSON_TYPES[type(raw)]}")
    return raw


def read_rvol(path) -> Volume:
    """Read a volume written by :func:`write_rvol`.

    A header field that is missing or malformed is a ``ValueError`` that
    names the field and the header file: ``size`` must be three integers
    >= 1, ``spacing`` three numbers that pass ``check_spacing``, and
    ``dtype`` one of the codes of ``DTYPE_CODES``.
    """
    path = os.fspath(path)
    where = path + ".json"
    header = read_json_object(where)
    for field in ("size", "spacing", "dtype"):
        if field not in header:
            raise ValueError(f"{where}: rvol header missing field '{field}'")
    size, spacing, code = header["size"], header["spacing"], header["dtype"]
    if not (isinstance(size, list) and len(size) == 3 and all(type(s) is int and s >= 1 for s in size)):
        raise ValueError(f"{where}: rvol header size must be three integers >= 1, got {size!r}")
    if not (isinstance(spacing, list) and len(spacing) == 3 and all(type(s) in (int, float) for s in spacing)):
        raise ValueError(f"{where}: rvol header spacing must be three numbers, got {spacing!r}")
    try:
        spacing = check_spacing(spacing)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None
    if not (isinstance(code, str) and code in DTYPE_CODES):
        raise ValueError(f"{where}: rvol header dtype must be one of {sorted(DTYPE_CODES)}, got {code!r}")
    sx, sy, sz = size
    dt = np.dtype(DTYPE_CODES[code]).newbyteorder("<")
    expected = sx * sy * sz * dt.itemsize
    actual = os.path.getsize(path)
    if actual != expected:
        raise ValueError(f"{path}: rvol payload is {actual} bytes, header size implies {expected}")
    # a no-op on a little-endian host, so the payload is held once
    flat = np.fromfile(path, dtype=dt).astype(DTYPE_CODES[code], copy=False)
    return Volume.from_flat(flat, size, spacing)
