import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthokernel import ConvSpec, KernelTensor, read_kernel, roundtrip_check, write_kernel
from orthokernel.cli import main
from orthokernel.orthogonalize import SCHEMES
from conftest import deeply_nested_documents

# `spectrum` output of a random 4->6 k3 groups=2 kernel at 4x6
GROUPED_SPECTRUM_SHA256 = "b08f781e1ad26353f84a3c5449e5015e078be8e718059fcf26eec47275eac692"


def write_config(path, **overrides):
    doc = {"c_in": 4, "c_out": 8, "kernel": [3, 3], "stride": 2, "groups": 1,
           "dilation": 1, "scheme": "bjorck", "seed": 7}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_build_verify_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "k.okt"
    assert main(["build", str(cfg), str(out)]) == 0
    assert out.exists()
    sidecar = json.loads((tmp_path / "k.okt.meta.json").read_text())
    assert sidecar["branch"]["branch"] in "abcd"
    assert sidecar["config"]["seed"] == 7
    # file round-trips identically through read/write
    K = read_kernel(out)
    again = tmp_path / "again.okt"
    write_kernel(again, K)
    assert again.read_bytes() == out.read_bytes()
    capsys.readouterr()
    code = main(["verify", str(out), "--stride", "2"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["pass"] is True
    assert report["config"]["stride"] == 2


def test_build_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a.okt", tmp_path / "b.okt"
    assert main(["build", str(cfg), str(a)]) == 0
    assert main(["build", str(cfg), str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_seed_comes_from_config(tmp_path):
    cfg7 = write_config(tmp_path / "cfg7.json", seed=7)
    cfg8 = write_config(tmp_path / "cfg8.json", seed=8)
    a, b, c = tmp_path / "a.okt", tmp_path / "b.okt", tmp_path / "c.okt"
    assert main(["build", str(cfg7), str(a)]) == 0
    assert main(["build", str(cfg8), str(b)]) == 0
    assert main(["build", str(cfg7), str(c)]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()
    meta = json.loads((tmp_path / "b.okt.meta.json").read_text())
    assert meta["config"]["seed"] == 8


def test_removed_surface_is_gone(tmp_path):
    import orthokernel

    for name in ("KernelChain", "DenseMatrix", "ImageTensor", "vec", "compat",
                 "singular_values_gram"):
        assert not hasattr(orthokernel, name), name
    cfg = write_config(tmp_path / "cfg.json")
    # build values come only from the config file
    with pytest.raises(SystemExit) as exc:
        main(["build", str(cfg), str(tmp_path / "k.okt"), "--seed", "1"])
    assert exc.value.code == 2


# every public name of the package that is not a submodule; an export is
# added or removed on purpose, as kernel bytes are changed with PINNED_SHA256
PUBLIC_API = [
    "AocConfig", "BranchTag", "ConvSpec", "KernelTensor", "SpectrumReport",
    "UnsupportedConfigError", "aoc_kernel", "bcop_kernel", "block_conv_fast",
    "cayley_rect", "check_orthogonality", "conv2d_ref",
    "conv2d_transpose_ref", "exp_map", "grid_entries", "identity_kernel", "kernel_from_json",
    "kernel_to_json", "kernel_transpose", "orthogonalize_stack", "polyphase_spectrum",
    "product_bound", "qr_mgs", "read_kernel", "rko_kernel",
    "roundtrip_check", "run_grid", "sample_params",
    "singular_values", "skew_symmetrize_kernel", "soc_explicit_kernel", "soc_normalized_skew",
    "spec_for_kernel", "toeplitz_from_kernel", "toeplitz_of_transpose", "write_kernel",
]


def test_public_api_pinned():
    import orthokernel

    names = sorted(name for name, value in vars(orthokernel).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_API


def test_build_invalid_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["build", str(bad), str(tmp_path / "k.okt")]) == 2
    cfg = write_config(tmp_path / "cfg2.json", groups=3)  # 4 % 3 != 0
    assert main(["build", str(cfg), str(tmp_path / "k.okt")]) == 2
    cfg = write_config(tmp_path / "cfg3.json", extra_key=1)
    assert main(["build", str(cfg), str(tmp_path / "k.okt")]) == 2
    for text in ("[4, 8, 3]", '{"c_in": 4, "c_out": 8}'):  # a list; no "kernel"
        bad.write_text(text)
        assert main(["build", str(bad), str(tmp_path / "k.okt")]) == 2, text
    # values are not coerced: integer keys take JSON integers only (not
    # bool); iters and beta are not keys at all
    for bad in ({"c_in": 2.7}, {"seed": 1.9}, {"c_in": "4"}, {"c_out": True},
                {"kernel": [3.5, 3]}, {"kernel": True}, {"stride": 2.0},
                {"iters": "12"}, {"beta": "0.5"}, {"beta": True}, {"seed": 2 ** 32}):
        cfg = write_config(tmp_path / "cfg4.json", **bad)
        out = tmp_path / "k4.okt"
        assert main(["build", str(cfg), str(out)]) == 2, bad
        assert not out.exists()


def test_build_sweep_count_or_step_exit_2(tmp_path, capsys):
    # Björck's sweep count and step are no build keys: either is refused by
    # name.  At step 0.05 this layer built and then failed verification
    # (sigma_min 0.995).
    for key, value in (("beta", 0.05), ("iters", 12)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"c_in": 64, "c_out": 64, "kernel": 2, "stride": 2,
                                    key: value}))
        out = tmp_path / "k.okt"
        assert main(["build", str(path), str(out)]) == 2
        assert capsys.readouterr().err == f"invalid config: unknown config keys: ['{key}']\n"
        assert not out.exists()


def test_build_ordering_exit_2(tmp_path, capsys):
    # there is one composition order of the projector factors; the key that
    # chose between two is refused by name, whichever value it holds
    for value in ("bcop", "scfac"):
        cfg = write_config(tmp_path / "cfg.json", ordering=value)
        out = tmp_path / "k.okt"
        assert main(["build", str(cfg), str(out)]) == 2
        assert capsys.readouterr().err == "invalid config: unknown config keys: ['ordering']\n"
        assert not out.exists()


def test_readme_build_config_example_builds(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"Build config JSON: `(\{.*?\})`", readme, re.S)
    path = tmp_path / "cfg.json"
    path.write_text(example)
    assert main(["build", str(path), str(tmp_path / "k.okt")]) == 0
    assert json.loads((tmp_path / "k.okt.meta.json").read_text())["config"] == {
        **json.loads(example), "kernel": [3, 3]}


def test_build_unsupported_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", kernel=[2, 2], stride=3)
    assert main(["build", str(cfg), str(tmp_path / "k.okt")]) == 3
    assert "no orthogonal kernel" in capsys.readouterr().err
    cfg = write_config(tmp_path / "dw.json", c_in=4, c_out=4, kernel=[3, 3],
                       stride=1, groups=4)
    assert main(["build", str(cfg), str(tmp_path / "k.okt")]) == 3


def test_build_unorthogonalizable_factor_exit_3(tmp_path, capsys, monkeypatch):
    # a factor no scheme can orthogonalize is a rank-deficient draw, which no
    # config is known to give; the ValueError (here numpy's LinAlgError, a
    # subclass) must become exit 3, not escape
    def refuse(cfg):
        raise np.linalg.LinAlgError("Matrix is not positive definite\nsecond line")

    monkeypatch.setattr("orthokernel.cli.aoc_kernel", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c_in": 2, "c_out": 4, "kernel": 3,
                                "groups": 2, "scheme": "cholesky", "seed": 1}))
    assert main(["build", str(path), str(tmp_path / "k.okt")]) == 3
    err = capsys.readouterr().err
    assert err == "unsupported configuration: Matrix is not positive definite\n"
    assert err.startswith("unsupported configuration: ")
    assert err.count("\n") == 1


def test_build_depthwise_spatial_one_prefix_exit_3(tmp_path, capsys):
    # the reason is printed after the prefix once, not with a second copy
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c_in": 4, "c_out": 4, "kernel": 3, "groups": 4}))
    assert main(["build", str(path), str(tmp_path / "k.okt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("unsupported configuration: ")
    assert err.count("unsupported configuration") == 1
    assert err.count("\n") == 1


def test_verify_perturbed_kernel_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "k.okt"
    main(["build", str(cfg), str(out)])
    K = read_kernel(out)
    data = K.data.copy()
    data[0, 0, 0, 0] += 0.1
    from orthokernel import KernelTensor

    write_kernel(out, KernelTensor(data, groups=K.groups))
    capsys.readouterr()
    code = main(["verify", str(out), "--stride", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["pass"] is False


def test_verify_relaxed_tolerance_cholesky(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", scheme="cholesky")
    out = tmp_path / "k.okt"
    assert main(["build", str(cfg), str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--stride", "2", "--tol", "5e-2"]) == 0


def _build_s2(tmp_path, **overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c_in": 4, "c_out": 8, "kernel": 3, "stride": 2, **overrides}))
    out = tmp_path / "k.okt"
    assert main(["build", str(path), str(out)]) == 0
    return out


def test_verify_and_spectrum_take_stride_from_sidecar(tmp_path, capsys):
    # okt-v1 stores no stride; read at stride 1 this kernel's sigma spans
    # 0.481 to 1.953
    out = _build_s2(tmp_path, dilation=3)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["stride"], config["dilation"]) == (2, 3)
    # flags that repeat the sidecar are accepted
    assert main(["verify", str(out), "--stride", "2", "--dilation", "3"]) == 0
    capsys.readouterr()
    assert main(["spectrum", str(out)]) == 0
    values = np.array([float(v) for v in capsys.readouterr().out.split()])
    assert np.max(np.abs(values - 1.0)) <= 1e-4


@pytest.mark.parametrize("sidecar", [True, False])
def test_verify_and_spectrum_default_size_fits_stride(tmp_path, capsys, sidecar):
    # 8x8 is not divisible by stride 3; the default is s*ceil(8/s) = 9 per
    # axis, with s from the sidecar or, without one, from --stride
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c_in": 2, "c_out": 9, "kernel": 5, "stride": 3}))
    out = tmp_path / "k.okt"
    assert main(["build", str(path), str(out)]) == 0
    flags = []
    if not sidecar:
        (tmp_path / "k.okt.meta.json").unlink()
        flags = ["--stride", "3"]
    capsys.readouterr()
    assert main(["verify", str(out), *flags]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["size"] == [9, 9]
    assert main(["spectrum", str(out), *flags]) == 0
    values = np.array([float(v) for v in capsys.readouterr().out.split()])
    # 3x3 output frequencies, 9 singular values each
    assert values.size == 81 and np.max(np.abs(values - 1.0)) <= 1e-4


@pytest.mark.parametrize("config", [{"c_in": 65536, "c_out": 65536, "kernel": 3},
                                    {"c_in": 4, "c_out": 8, "kernel": 1099511627776}])
def test_build_oversized_config_exit_3(tmp_path, config):
    # refused from the config alone; the build runs in a process capped at
    # 3 GB of address space, so one that got past the budget would end in a
    # MemoryError rather than take the machine's memory
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9,) * 2); "
            "from orthokernel.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code, "build", str(path), str(tmp_path / "k.okt")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("unsupported configuration: layer too large: its kernel has ")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "k.okt").exists()


@st.composite
def cli_configs(draw):
    g = draw(st.sampled_from([1, 2, 4]))
    kernel = draw(st.one_of(st.integers(1, 5), st.lists(st.integers(1, 5), min_size=2,
                                                         max_size=2)))
    return {"c_in": g * draw(st.integers(1, 6)), "c_out": g * draw(st.integers(1, 6)),
            "kernel": kernel, "stride": draw(st.integers(1, 3)), "groups": g,
            "dilation": draw(st.integers(1, 3)), "scheme": draw(st.sampled_from(SCHEMES)),
            "seed": draw(st.integers(0, 2 ** 32 - 1))}


def _run_cli(argv) -> tuple[int, str]:
    """Exit code and stderr of `main(argv)`; an uncaught exception fails
    the calling test, as a traceback would end the command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(cli_configs())
# both are refused from the config alone, before anything is allocated
@example({"c_in": 65536, "c_out": 65536, "kernel": 3})
@example({"c_in": 4, "c_out": 8, "kernel": 1099511627776})
# lags beyond int64, wrapped to the grid in Python ints
@example({"c_in": 4, "c_out": 4, "kernel": 3, "dilation": 9223372036854775808})
@example({"c_in": 4, "c_out": 8, "kernel": 3, "stride": 2, "dilation": 18446744073709551617})
def test_build_then_verify_at_default_flags(config):
    # every config the build accepts verifies at the default size; every
    # other one is refused with exit 3, and no command ends in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "k.okt"
        path.write_text(json.dumps(config))
        code, err = _run_cli(["build", str(path), str(out)])
        assert code in (0, 3), err
        assert "Traceback" not in err
        if code == 3:
            assert err.startswith("unsupported configuration: ") and not out.exists()
            return
        code, err = _run_cli(["verify", str(out)])
        assert code == 0, err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("flag, value, built", [("--stride", "1", "2"),
                                                ("--dilation", "2", "1")])
def test_flag_contradicting_sidecar_exit_2(tmp_path, capsys, command, flag, value, built):
    out = _build_s2(tmp_path)
    capsys.readouterr()
    assert main([command, str(out), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key = flag[2:]
    assert captured.err == (f"invalid input: {flag} {value} contradicts {key} {built} "
                            f"in {out}.meta.json\n")


def test_kernel_without_sidecar_takes_stride_from_flags(tmp_path, capsys):
    out = _build_s2(tmp_path)
    copy = tmp_path / "copy.okt"
    shutil.copyfile(out, copy)
    capsys.readouterr()
    assert main(["verify", str(copy)]) == 1
    assert json.loads(capsys.readouterr().out)["config"]["stride"] == 1
    assert main(["verify", str(copy), "--stride", "2"]) == 0


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_dilation_beyond_int64_from_flags(tmp_path, capsys, command):
    # a kernel built at d = 2^63, read without its sidecar: its lags pass
    # int64, and the flag's dilation checks it all the same
    d = 2 ** 63
    cfg = write_config(tmp_path / "cfg.json", c_out=4, stride=1, dilation=d)
    out, copy = tmp_path / "k.okt", tmp_path / "copy.okt"
    assert main(["build", str(cfg), str(out)]) == 0
    shutil.copyfile(out, copy)
    capsys.readouterr()
    assert main([command, str(copy), "--dilation", str(d)]) == 0
    text = capsys.readouterr().out
    if command == "verify":
        report = json.loads(text)
        assert report["pass"] is True and report["config"]["dilation"] == d
    else:
        assert max(abs(float(v) - 1.0) for v in text.split()) <= 1e-4


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("text, reason", [
    ("{not json", "unreadable build sidecar"),
    ("[1, 2]", "unreadable build sidecar"),
    ('{"config": {"c_in": 4}}', "unreadable build sidecar"),
    ("[" * 100000, "unreadable build sidecar"),
    (json.dumps({"config": {"c_in": 4, "c_out": 8, "kernel": [3, 3], "stride": 2.0,
                            "groups": 1, "dilation": 1}}), "unreadable build sidecar"),
    # JSON true is a bool, which ConvSpec refuses like any non-integer
    (json.dumps({"config": {"c_in": 4, "c_out": 8, "kernel": [3, 3], "stride": 2,
                            "groups": True, "dilation": 1}}), "unreadable build sidecar"),
    (json.dumps({"config": {"c_in": 4, "c_out": 16, "kernel": [3, 3], "stride": 2,
                            "groups": 1, "dilation": 1}}), "describes another kernel"),
    (json.dumps({"config": {"c_in": 4, "c_out": 8, "kernel": [3, 3], "stride": 2,
                            "groups": 2, "dilation": 1}}), "describes another kernel"),
], ids=["malformed", "list", "missing-keys", "deep", "float-stride", "bool-groups", "channels",
        "groups"])
def test_bad_sidecar_exit_2(tmp_path, capsys, command, text, reason):
    out = _build_s2(tmp_path)
    Path(str(out) + ".meta.json").write_text(text)
    capsys.readouterr()
    assert main([command, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and reason in err and err.count("\n") == 1


def test_verify_missing_file_exit_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.okt")]) == 2


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_malformed_kernel_file_exit_2(tmp_path, capsys, command):
    base = {"format": "okt-v1", "shape": [1, 1, 1, 1], "groups": 1,
            "dtype": "f64", "order": "row-major", "data": [1.0]}
    for bad in ({k: v for k, v in base.items() if k != "shape"},
                {k: v for k, v in base.items() if k != "data"},
                dict(base, shape=5),
                dict(base, shape=[1, 1, 1, 2], data=[True, 1.5])):
        path = tmp_path / "bad.okt"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_deeply_nested_kernel_file_exit_2(tmp_path, capsys, command):
    path = tmp_path / "deep.okt"
    for text in deeply_nested_documents():
        path.write_text(text)
        capsys.readouterr()
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "invalid input: kernel document is nested too deeply\n"


def test_build_deeply_nested_config_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"c_in":' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["build", str(path), str(tmp_path / "k.okt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_non_ascii_or_bool_writer_layout_file_exit_2(tmp_path, capsys, command):
    text = ('{"data":[1.0],"dtype":"f64","format":"okt-v1","groups":1,'
            '"order":"row-major","shape":[1,1,1,1]}\n')
    path = tmp_path / "k.okt"
    path.write_text(text)
    assert main([command, str(path)]) == 0
    # the last one ends inside its data list, before any "]"
    for bad in (text.replace('"f64"', '"f64","note":"\u00e9"').encode("utf-8"),
                text.replace("1.0", "true").encode(), b'{"data":[0.5,0.25'):
        path.write_bytes(bad)
        capsys.readouterr()
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_shape_claiming_more_entries_than_held_exit_2(tmp_path, capsys, command):
    path = tmp_path / "k.okt"
    path.write_text('{"data":[0.5,0.25],"dtype":"f64","format":"okt-v1","groups":1,'
                    '"order":"row-major","shape":[100000,100000,3,3]}\n')
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def test_verify_wide_strided_layer(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", c_in=64, c_out=128, seed=0)
    out = tmp_path / "k.okt"
    assert main(["build", str(cfg), str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--stride", "2", "--size", "16", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert (doc["n_rows"], doc["n_cols"]) == (128 * 64, 64 * 256)


def test_verify_over_budget_exit_3(tmp_path, capsys):
    from orthokernel import identity_kernel

    out = tmp_path / "id.okt"
    write_kernel(out, identity_kernel(2))
    capsys.readouterr()
    # a 2x2x4096x2048 impulse stack is twice the entry budget: a valid
    # kernel that the check does not handle, so exit 3, not 2
    for command in ("verify", "spectrum"):
        assert main([command, str(out), "--size", "4096", "2048"]) == 3, command
        captured = capsys.readouterr()
        assert captured.err.startswith("unsupported configuration: per-group block array ")
        assert "entry budget (16777216)" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""


def test_verify_overflowing_kernel_exit_2(tmp_path, capsys):
    # the reader accepts any finite entry; one of 1e308 overflows the
    # spectrum's block-circulant guard, which refuses it: invalid input
    out = tmp_path / "big.okt"
    data = np.zeros((4, 4, 3, 3))
    data[:, :, 1, 1] = np.eye(4)
    data[1, 2, 0, 1] = 1e308
    write_kernel(out, KernelTensor(data))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: kernel entries too large to check")
    assert captured.out == ""


def test_verify_grouped_wide_layer_at_16(tmp_path, capsys):
    # the budget counts the per-group stack, 256x2x512 entries, not the
    # 512x131072 block-diagonal array (four times the budget)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c_in": 512, "c_out": 512, "kernel": 3, "groups": 256}))
    out = tmp_path / "k.okt"
    assert main(["build", str(cfg), str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--size", "16", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"sigma_min", "sigma_max", "freq_min", "freq_max", "pass",
                        "tolerance", "n_rows", "n_cols", "config"}
    assert doc["pass"] is True and doc["config"]["groups"] == 256
    assert (doc["n_rows"], doc["n_cols"]) == (512 * 256, 512 * 256)


def test_spectrum_grouped_text_pinned(tmp_path, capsys):
    out = tmp_path / "g.okt"
    data = np.random.Generator(np.random.PCG64(3)).standard_normal((6, 2, 3, 3))
    write_kernel(out, KernelTensor(data, groups=2))
    capsys.readouterr()
    assert main(["spectrum", str(out), "--size", "4", "6"]) == 0
    text = capsys.readouterr().out
    assert len(text.split()) == 4 * 6 * 4
    assert hashlib.sha256(text.encode()).hexdigest() == GROUPED_SPECTRUM_SHA256


@pytest.mark.parametrize("size", [["0", "0"], ["-4", "4"]])
def test_verify_non_positive_size_exit_2(tmp_path, capsys, size):
    from orthokernel import identity_kernel

    out = tmp_path / "id.okt"
    write_kernel(out, identity_kernel(2))
    capsys.readouterr()
    assert main(["verify", str(out), "--size", *size]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: image size") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_bad_tolerance_exit_2(tmp_path, capsys, tol):
    from orthokernel import identity_kernel

    out = tmp_path / "id.okt"
    write_kernel(out, identity_kernel(2))
    capsys.readouterr()
    assert main(["verify", str(out), "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: tolerance") and captured.err.count("\n") == 1


def test_spectrum_identity_prints_ones(tmp_path, capsys):
    from orthokernel import identity_kernel

    out = tmp_path / "id.okt"
    write_kernel(out, identity_kernel(2))
    capsys.readouterr()
    assert main(["spectrum", str(out), "--size", "4", "4"]) == 0
    values = [float(line) for line in capsys.readouterr().out.split()]
    assert len(values) == 32
    assert all(v == 1.0 for v in values)
    assert values == sorted(values, reverse=True)


def test_spectrum_aoc_flat_vs_rko_spread(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "k.okt"
    main(["build", str(cfg), str(out)])
    capsys.readouterr()
    main(["spectrum", str(out), "--stride", "2"])
    values = np.array([float(v) for v in capsys.readouterr().out.split()])
    assert np.max(np.abs(values - 1.0)) <= 1e-4


def test_selftest_single_category(capsys):
    assert main(["selftest", "--category", "even_kernel"]) == 0
    out = capsys.readouterr().out
    assert "even_kernel" in out and "all passed" in out


def test_parser_built_once_parses_each_call_afresh(tmp_path, capsys):
    from orthokernel.cli import build_parser

    assert build_parser() is build_parser()
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "k.okt"
    assert main(["build", str(cfg), str(out)]) == 0
    # without the sidecar, the stride comes from the flag of each call alone
    (tmp_path / "k.okt.meta.json").unlink()
    capsys.readouterr()
    assert main(["verify", str(out), "--stride", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["stride"] == 2
    # 4 -> 8 channels at stride 1 cannot be orthogonal
    assert main(["verify", str(out)]) == 1
    assert json.loads(capsys.readouterr().out)["config"]["stride"] == 1
    assert main(["selftest", "--category", "even_kernel"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--category", "depthwise"]) == 0
    second = capsys.readouterr().out
    assert "even_kernel" in first and "depthwise" not in first
    assert "depthwise" in second and "even_kernel" not in second


def test_selftest_failures_exit_1(capsys):
    # at tolerance 0 an entry passes only with every singular value exactly 1
    assert main(["selftest", "--category", "common", "--tol", "0"]) == 1
    out = capsys.readouterr().out
    assert "\nFAIL " in out and out.endswith(": FAILURES\n")


def test_selftest_full_grid(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    category_lines = [l for l in out.splitlines() if "/" in l and "passed" in l]
    assert len(category_lines) >= 5
    assert "all passed" in out


def test_selftest_unknown_scheme_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--scheme", "foo"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_selftest_negative_seed_exit_2(capsys):
    assert main(["selftest", "--seed", "-1", "--category", "common"]) == 2
    assert "seed" in capsys.readouterr().err
    # 2**32 would draw the stream of the seed words (0, 1); refused the same way
    assert main(["selftest", "--seed", str(2 ** 32), "--category", "common"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("category", ["common", "transposed"])
def test_selftest_bad_tolerance_exit_2(capsys, tol, category):
    # refused before any entry is built, transposed ones included
    assert main(["selftest", "--tol", tol, "--category", category]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: tolerance") and captured.err.count("\n") == 1


def test_selftest_unbuildable_entry_exit_3(capsys, monkeypatch):
    # the grouped entries, one-column projector bases among them, build and
    # pass under cholesky; an entry that cannot be built exits 3
    assert main(["selftest", "--scheme", "cholesky", "--category", "grouped"]) == 0
    capsys.readouterr()

    def refuse(cfg):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr("orthokernel.verify.aoc_kernel", refuse)
    assert main(["selftest", "--scheme", "cholesky", "--category", "grouped"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("unsupported configuration: ")
    assert err.count("\n") == 1


def test_spectrum_non_flat_for_unstrided_reshape(tmp_path, capsys):
    from orthokernel import rko_kernel

    out = tmp_path / "rko.okt"
    write_kernel(out, rko_kernel(4, 4, 3, 3, seed=6))
    capsys.readouterr()
    assert main(["spectrum", str(out)]) == 0
    values = np.array([float(v) for v in capsys.readouterr().out.split()])
    assert values.min() < 0.99  # spread spectrum, not orthogonal at s=1


def test_build_unwritable_output_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "missing" / "k.okt"
    assert main(["build", str(cfg), str(out)]) == 2
    assert "invalid output path" in capsys.readouterr().err


def test_build_wide_channel_increasing_strided(tmp_path):
    # large enough that a dense check of the unstrided operator would
    # exceed the entry budget; the layer must still build through fusion
    cfg = write_config(tmp_path / "cfg.json", c_in=96, c_out=192, seed=0)
    out = tmp_path / "k.okt"
    assert main(["build", str(cfg), str(out)]) == 0
    sidecar = json.loads((tmp_path / "k.okt.meta.json").read_text())
    assert sidecar["branch"]["branch"] == "d"
    K = read_kernel(out)
    spec = ConvSpec(c_in=96, c_out=192, k_h=3, k_w=3, stride=2)
    assert roundtrip_check(K, spec, direction="row") <= 1e-8


def test_exponential_near_square_layer_verifies(tmp_path, capsys):
    # its 256x255 channel map is a polar factor; 25 Björck sweeps alone left
    # it at 8.2e-3, and the layer at sigma_min 0.862
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c_in": 255, "c_out": 256, "kernel": 3,
                                "scheme": "exponential", "seed": 4}))
    out = tmp_path / "k.okt"
    assert main(["build", str(path), str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["config"]["size"] == [8, 8]


# the whole sidecar text, pinned so that a change to how the build config
# is resolved or written is deliberate
SIDECAR_MINIMAL = """\
{
  "branch": {
    "branch": "a",
    "internal_width": null
  },
  "config": {
    "c_in": 4,
    "c_out": 8,
    "dilation": 1,
    "groups": 1,
    "kernel": [
      3,
      3
    ],
    "scheme": "qr_mgs",
    "seed": 0,
    "stride": 1
  },
  "version": 11
}
"""
SIDECAR_GROUPED = """\
{
  "branch": {
    "branch": "d",
    "internal_width": 4
  },
  "config": {
    "c_in": 8,
    "c_out": 16,
    "dilation": 3,
    "groups": 2,
    "kernel": [
      3,
      2
    ],
    "scheme": "cayley",
    "seed": 7,
    "stride": 2
  },
  "version": 11
}
"""


@pytest.mark.parametrize("doc, text", [
    ({"c_in": 4, "c_out": 8, "kernel": 3}, SIDECAR_MINIMAL),
    ({"c_in": 8, "c_out": 16, "kernel": [3, 2], "stride": 2, "groups": 2, "dilation": 3,
      "scheme": "cayley", "seed": 7},
     SIDECAR_GROUPED),
], ids=["minimal", "grouped"])
def test_build_sidecar_text_pinned(tmp_path, doc, text):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["build", str(path), str(tmp_path / "k.okt")]) == 0
    assert (tmp_path / "k.okt.meta.json").read_text() == text
