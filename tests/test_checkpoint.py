import struct
import zipfile

import numpy as np
import pytest

from heartfields import netcore
from heartfields.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from heartfields.netcore import OptimizerState
from heartfields.training import LatentStats

REQUIRED = [
    "format",
    "scales",
    "seg_net.dims",
    "seg_net.params",
    "reg_net.dims",
    "reg_net.params",
    "latent_codes",
    "epoch",
]


def make_checkpoint(with_stats=True, with_opt=True):
    seg = netcore.init_params(netcore.ResidualMlp(7, 5, 16, 2), seed=1)
    reg = netcore.init_params(netcore.ResidualMlp(8, 3, 16, 2), seed=2)
    rng = np.random.default_rng(3)
    codes = rng.standard_normal((5, 4))
    ckpt = Checkpoint(seg_net=seg, reg_net=reg, latent_codes=codes, epoch=42)
    if with_stats:
        cov = np.cov(codes.T)
        ckpt.stats = LatentStats(codes.mean(axis=0), np.linalg.inv(cov + 1e-6 * np.eye(4)))
    if with_opt:
        ckpt.opt = {
            "seg": OptimizerState(
                rng.standard_normal(seg.n_params), np.abs(rng.standard_normal(seg.n_params)), 17
            ),
            "lat": OptimizerState(
                rng.standard_normal((5, 4)), np.abs(rng.standard_normal((5, 4))), 9
            ),
        }
    return ckpt


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "model.nihc"
    save_checkpoint(path, make_checkpoint())
    return path


def edited(path, drop=(), replace=None):
    """A copy of the checkpoint at ``path`` without the members in ``drop``
    and with the arrays of ``replace`` put in (or added) by name."""
    with np.load(path) as z:
        members = {name: z[name] for name in z.files if name not in drop}
    members.update(replace or {})
    out = path.with_name("edited.nihc")
    with open(out, "wb") as f:
        np.savez(f, **members)
    return out


def rejected(path, match):
    with pytest.raises(ValueError, match=match) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_roundtrip(saved):
    ckpt = make_checkpoint()
    back = load_checkpoint(saved)
    assert back.epoch == 42
    assert back.latent_codes.shape[1] == 4
    for attr in ("input_dim", "output_dim", "hidden_dim", "num_blocks"):
        assert getattr(back.seg_net, attr) == getattr(ckpt.seg_net, attr)
        assert getattr(back.reg_net, attr) == getattr(ckpt.reg_net, attr)
    np.testing.assert_array_equal(back.seg_net.parameters, ckpt.seg_net.parameters)
    np.testing.assert_array_equal(back.reg_net.parameters, ckpt.reg_net.parameters)
    np.testing.assert_array_equal(back.latent_codes, ckpt.latent_codes)
    np.testing.assert_array_equal(back.stats.mean, ckpt.stats.mean)
    np.testing.assert_array_equal(back.stats.cov_inv, ckpt.stats.cov_inv)
    assert sorted(back.opt) == ["lat", "seg"]
    assert back.opt["lat"].first_moment.shape == (5, 4)
    for name in ("seg", "lat"):
        want, got = ckpt.opt[name], back.opt[name]
        np.testing.assert_array_equal(got.first_moment, want.first_moment)
        np.testing.assert_array_equal(got.second_moment, want.second_moment)
        assert got.step_count == want.step_count


def test_roundtrip_minimal_sections(tmp_path):
    path = tmp_path / "bare.nihc"
    save_checkpoint(path, make_checkpoint(with_stats=False, with_opt=False))
    with zipfile.ZipFile(path) as zf:
        assert zf.namelist() == [f"{name}.npy" for name in REQUIRED]
    back = load_checkpoint(path)
    assert back.stats is None
    assert back.opt == {}


def test_scales_checked_on_load(saved):
    rejected(edited(saved, replace={"scales": np.array([0.02, 100.0])}), "scales")
    rejected(edited(saved, drop=["scales"]), "scales")


def test_magic_and_version_checked(saved, tmp_path):
    rejected(edited(saved, replace={"format": np.array(3)}), "format 3")
    bad = tmp_path / "bad.nihc"
    # a file of the old section-table format: magic, version 1, latent dim, no sections
    bad.write_bytes(b"NIHC" + struct.pack("<3I", 1, 4, 0))
    rejected(bad, "format 1 is no longer read; retrain")
    bad.write_bytes(b"XXXX" + saved.read_bytes()[4:])
    rejected(bad, "Bad magic number")


def test_truncated_or_corrupt_file_rejected(saved, tmp_path):
    blob = saved.read_bytes()
    bad = tmp_path / "bad.nihc"
    for cut in [0, 3, 4, 100, len(blob) // 2, len(blob) - 22, len(blob) - 1]:
        bad.write_bytes(blob[:cut])
        rejected(bad, "not a zip file")
    # one flipped byte at the start, middle and end of each member's stored
    # bytes (its .npy header and data), which the CRC-32 of the member catches
    with zipfile.ZipFile(saved) as zf:
        members = zf.infolist()
    assert len(members) == 16
    for info in members:
        name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
        start = info.header_offset + 30 + name_len + extra_len
        for at in (start, start + info.file_size // 2, start + info.file_size - 1):
            corrupt = bytearray(blob)
            corrupt[at] ^= 0xFF
            bad.write_bytes(bytes(corrupt))
            rejected(bad, f"Bad CRC-32 for file '{info.filename}'")
    # a flipped byte in the zip directory: the first entry's compression
    # method, and the directory's offset in the end record
    directory = blob.index(b"PK\x01\x02")
    for at, match in ((directory + 10, "compression method"), (len(blob) - 4, "Invalid argument")):
        corrupt = bytearray(blob)
        corrupt[at] ^= 0xFF
        bad.write_bytes(bytes(corrupt))
        rejected(bad, match)


@pytest.mark.parametrize("member", REQUIRED + ["stats.cov_inv", "opt.seg.v", "opt.lat.t"])
def test_missing_member_rejected(saved, member):
    rejected(edited(saved, drop=[member]), member)


def test_stats_cov_of_an_older_checkpoint_is_ignored(saved):
    """Checkpoints once also stored the covariance the prior never reads;
    such a file still loads, and saving writes no ``stats.cov``."""
    with zipfile.ZipFile(saved) as zf:
        assert "stats.cov.npy" not in zf.namelist()
    back = load_checkpoint(edited(saved, replace={"stats.cov": np.eye(4)}))
    want = make_checkpoint().stats
    assert sorted(vars(back.stats)) == ["cov_inv", "mean"]
    np.testing.assert_array_equal(back.stats.mean, want.mean)
    np.testing.assert_array_equal(back.stats.cov_inv, want.cov_inv)


def test_disagreeing_dims_rejected(saved):
    with np.load(saved) as z:
        arrays = {name: z[name] for name in z.files}
    # a net's hidden width one larger than its parameter vector holds
    for net in ("seg_net", "reg_net"):
        dims = arrays[f"{net}.dims"] + [0, 0, 1, 0]
        rejected(edited(saved, replace={f"{net}.dims": dims}), "parameter vector has shape")
    rejected(edited(saved, replace={"stats.mean": arrays["stats.mean"][:3]}), "latent stats")
    rejected(edited(saved, replace={"opt.seg.m": arrays["opt.seg.m"][1:]}), "opt.seg moments")
    # latent moments for fewer rows than the table has
    ckpt = make_checkpoint()
    lat = ckpt.opt["lat"]
    ckpt.opt["lat"] = OptimizerState(lat.first_moment[:4], lat.second_moment[:4], lat.step_count)
    save_checkpoint(saved, ckpt)
    rejected(saved, "opt.lat moments")


def test_float32_nets_keep_their_dtype(tmp_path):
    ckpt = make_checkpoint(with_stats=False, with_opt=False)
    ckpt.seg_net = ckpt.seg_net.astype(np.float32)
    path = tmp_path / "f32.nihc"
    save_checkpoint(path, ckpt)
    with np.load(path) as z:
        assert z["seg_net.params"].dtype == np.dtype("<f4")
        assert z["reg_net.params"].dtype == np.dtype("<f8")
    back = load_checkpoint(path)
    assert back.seg_net.parameters.dtype == np.float32
    assert back.seg_net.parameters.tobytes() == ckpt.seg_net.parameters.tobytes()
    assert back.reg_net.parameters.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
def test_net_params_of_another_dtype_rejected(saved, dtype):
    with np.load(saved) as z:
        params = z["reg_net.params"]
    rejected(edited(saved, replace={"reg_net.params": params.astype(dtype)}), "reg_net.params")


def test_adam_moments_of_another_dtype_rejected(saved):
    with np.load(saved) as z:
        moments = z["opt.seg.v"]
    rejected(edited(saved, replace={"opt.seg.v": moments.astype(np.float32)}), "opt.seg moments")


def test_saves_are_byte_identical(saved, tmp_path):
    again = tmp_path / "again.nihc"
    save_checkpoint(again, make_checkpoint())
    assert again.read_bytes() == saved.read_bytes()
    with zipfile.ZipFile(saved) as zf:
        for info in zf.infolist():
            assert info.date_time == (1980, 1, 1, 0, 0, 0), info.filename
            assert info.compress_type == zipfile.ZIP_STORED, info.filename
