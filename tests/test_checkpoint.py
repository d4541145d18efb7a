import struct

import numpy as np
import pytest

from heartfields import netcore
from heartfields.checkpoint import MAGIC, Checkpoint, load_checkpoint, save_checkpoint
from heartfields.netcore import OptimizerState
from heartfields.training import LatentStats


def make_checkpoint(with_stats=True, with_opt=True):
    seg = netcore.init_params(netcore.ResidualMlp(7, 5, 16, 2), seed=1)
    reg = netcore.init_params(netcore.ResidualMlp(8, 3, 16, 2), seed=2)
    rng = np.random.default_rng(3)
    codes = rng.standard_normal((5, 4))
    ckpt = Checkpoint(seg_net=seg, reg_net=reg, latent_codes=codes, epoch=42)
    if with_stats:
        cov = np.cov(codes.T)
        ckpt.stats = LatentStats(codes.mean(axis=0), cov, np.linalg.inv(cov + 1e-6 * np.eye(4)))
    if with_opt:
        ckpt.opt = {
            "seg": OptimizerState(
                rng.standard_normal(seg.n_params), np.abs(rng.standard_normal(seg.n_params)), 17
            ),
            "lat": [
                OptimizerState(rng.standard_normal(4), np.abs(rng.standard_normal(4)), 9)
                for _ in range(5)
            ],
        }
    return ckpt


def test_roundtrip(tmp_path):
    path = tmp_path / "model.nihc"
    ckpt = make_checkpoint()
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.epoch == 42
    assert back.latent_dim == 4
    for attr in ("input_dim", "output_dim", "hidden_dim", "num_blocks"):
        assert getattr(back.seg_net, attr) == getattr(ckpt.seg_net, attr)
        assert getattr(back.reg_net, attr) == getattr(ckpt.reg_net, attr)
    np.testing.assert_array_equal(back.seg_net.parameters, ckpt.seg_net.parameters)
    np.testing.assert_array_equal(back.reg_net.parameters, ckpt.reg_net.parameters)
    np.testing.assert_array_equal(back.latent_codes, ckpt.latent_codes)
    np.testing.assert_array_equal(back.stats.mean, ckpt.stats.mean)
    np.testing.assert_array_equal(back.stats.cov, ckpt.stats.cov)
    np.testing.assert_array_equal(back.stats.cov_inv, ckpt.stats.cov_inv)
    assert sorted(back.opt) == ["lat", "seg"]
    assert len(back.opt["lat"]) == 5
    for saved, loaded in zip([ckpt.opt["seg"]] + ckpt.opt["lat"], [back.opt["seg"]] + back.opt["lat"]):
        np.testing.assert_array_equal(loaded.first_moment, saved.first_moment)
        np.testing.assert_array_equal(loaded.second_moment, saved.second_moment)
        assert loaded.step_count == saved.step_count


def test_roundtrip_minimal_sections(tmp_path):
    path = tmp_path / "bare.nihc"
    save_checkpoint(path, make_checkpoint(with_stats=False, with_opt=False))
    back = load_checkpoint(path)
    assert back.stats is None
    assert back.opt == {}


def test_scales_checked_on_load(tmp_path):
    path = tmp_path / "model.nihc"
    save_checkpoint(path, make_checkpoint())
    blob = path.read_bytes()
    bad = tmp_path / "bad.nihc"
    # another value for the input scale
    at = blob.index(b"input_scale") + 16
    bad.write_bytes(blob[:at] + struct.pack("<d", 0.02) + blob[at + 8 :])
    with pytest.raises(ValueError, match="scales"):
        load_checkpoint(bad)
    # no scales section: its table entry renamed
    bad.write_bytes(blob.replace(b"scales\0\0", b"scalez\0\0", 1))
    with pytest.raises(ValueError, match="scales"):
        load_checkpoint(bad)


def test_magic_and_version_checked(tmp_path):
    path = tmp_path / "model.nihc"
    save_checkpoint(path, make_checkpoint())
    blob = bytearray(path.read_bytes())
    assert blob[:4] == MAGIC
    bad = tmp_path / "bad.nihc"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)
    blob[4] = 99  # version field
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(bad)


def test_truncated_or_corrupt_file_rejected(tmp_path):
    path = tmp_path / "model.nihc"
    save_checkpoint(path, make_checkpoint())
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 12)
    table = {}
    for i in range(n):
        name, offset, size = struct.unpack_from("<8sQQ", blob, 16 + 24 * i)
        table[name.rstrip(b"\0").decode()] = offset, size
    bad = tmp_path / "bad.nihc"

    def rejected(data, match):
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=match) as err:
            load_checkpoint(bad)
        assert str(bad) in str(err.value)

    # cut inside the header, inside the section table, and inside each section
    for cut in [0, 10, 15, 16 + 12, 16 + 24 * n - 1]:
        rejected(blob[:cut], "truncated")
    for name, (offset, size) in table.items():
        rejected(blob[: offset + size // 2], f"truncated: section '{name}'")
    # a required section missing: its table entry renamed
    for name in ("segnet", "regnet", "latents", "scales"):
        rejected(blob.replace(name.encode().ljust(8, b"\0"), b"unknown\0", 1), "missing")
    # a declared dim one larger than the payload holds (the hidden width of
    # a net, the row or element count of the others)
    fields = {"segnet": 8, "regnet": 8, "latents": 0, "latstats": 0, "opt_seg": 0}
    for name, field in fields.items():
        at = table[name][0] + field
        corrupt = bytearray(blob)
        struct.pack_into("<I", corrupt, at, struct.unpack_from("<I", blob, at)[0] + 1)
        rejected(bytes(corrupt), f"section '{name}' .* need")
    # latent-row moments that do not split into the table's rows
    ckpt = make_checkpoint()
    ckpt.opt["lat"] = ckpt.opt["lat"][:4]
    save_checkpoint(path, ckpt)
    rejected(path.read_bytes(), "opt_lat")


def test_float32_nets_saved_as_float64(tmp_path):
    ckpt = make_checkpoint(with_stats=False, with_opt=False)
    ckpt.seg_net = ckpt.seg_net.astype(np.float32)
    path = tmp_path / "f32.nihc"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.seg_net.parameters.dtype == np.float64
    np.testing.assert_allclose(
        back.seg_net.parameters, ckpt.seg_net.parameters.astype(np.float64)
    )


def test_write_is_atomic(tmp_path):
    path = tmp_path / "model.nihc"
    save_checkpoint(path, make_checkpoint())
    first = path.read_bytes()
    save_checkpoint(path, make_checkpoint())
    assert path.read_bytes() == first  # same content, no partial leftovers
    assert not (tmp_path / "model.nihc.tmp").exists()
