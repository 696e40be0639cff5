import json
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from neuroseg import autodiff as ad


def central_diff(f, arr, h=1e-5):
    """Central finite differences of scalar f() w.r.t. every entry of arr,
    mutating arr in place and restoring it."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def rewrite_header(path, raw, edit):
    """Write the checkpoint bytes ``raw`` back to ``path`` with ``edit``
    applied to their JSON header."""
    (hlen,) = struct.unpack_from("<I", raw, 4)
    header = json.loads(raw[8 : 8 + hlen])
    edit(header)
    payload = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(payload)) + payload + raw[8 + hlen :])


def float_bits(x):
    """The IEEE bytes of x as a float64, for bitwise comparisons."""
    return np.float64(x).tobytes()


def tensor(arr, requires_grad=True):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


@pytest.fixture
def submits(monkeypatch):
    """Every ThreadPoolExecutor.submit of the test, as (calling thread,
    submitted function)."""
    calls = []
    submit = ThreadPoolExecutor.submit

    def recording(self, fn, *args, **kwargs):
        calls.append((threading.current_thread(), fn))
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
