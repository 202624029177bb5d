"""Property tests: the binary file formats round-trip and reject damage.

EMLP checkpoints and EGF feature packs are written, read back and compared
bit for bit, then cut short at every length: each prefix must be refused.
Values are drawn float32-exact, since both formats store float32.
"""
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from driftbench.dataset import FeatureSet, load_feature_pack, write_feature_pack
from driftbench.mlp import CHECKPOINT_MAGIC, MlpParams, load_checkpoint, save_checkpoint

FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def mlp_params(draw):
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=4, max_size=4)))
    size = MlpParams.zeros(dims).flat.size
    flat = draw(hnp.arrays(np.float32, size, elements=FLOAT32)).astype(np.float64)
    return MlpParams(dims, flat)


def rejects_every_prefix(raw, load, path):
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(path)


@settings(max_examples=60, deadline=None)
@given(mlp_params())
def test_emlp_round_trip_and_truncation(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.emlp"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        assert len(raw) == 20 + 4 * sum(t.size for t in params.tensors().values())
        back = load_checkpoint(path)
        assert back.dims == params.dims
        assert back.flat.dtype == np.float64
        assert back.flat.tobytes() == params.flat.tobytes()
        rejects_every_prefix(raw, load_checkpoint, Path(tmp) / "cut.emlp")


@settings(max_examples=60, deadline=None)
@given(mlp_params(), st.binary(min_size=4, max_size=4).filter(lambda b: b != CHECKPOINT_MAGIC))
def test_emlp_wrong_magic_is_rejected(params, magic):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.emlp"
        save_checkpoint(params, path)
        path.write_bytes(magic + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="bad checkpoint magic"):
            load_checkpoint(path)


@st.composite
def feature_sets(draw):
    n, t, d = draw(st.integers(0, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    values = draw(hnp.arrays(np.float32, (n, t, d), elements=FLOAT32))
    return FeatureSet(n_clips=n, temporal_count=t, feature_dim=d, values=values)


@settings(max_examples=60, deadline=None)
@given(feature_sets())
def test_egf_round_trip_and_truncation(features):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.egf"
        write_feature_pack(features, path)
        raw = path.read_bytes()
        back = load_feature_pack(path)
        assert (back.n_clips, back.temporal_count, back.feature_dim) == \
            (features.n_clips, features.temporal_count, features.feature_dim)
        assert back.values.shape == features.values.shape
        assert back.values.tobytes() == features.values.astype("<f4").tobytes()
        rejects_every_prefix(raw, load_feature_pack, Path(tmp) / "cut.egf")
