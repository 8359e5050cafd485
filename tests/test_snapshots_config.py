import builtins
import errno
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dsalpha import (ConfigError, Grid2D, ModelKind, ModelSpec, ParameterError,
                     SnapshotFormatError, complex_field)
from dsalpha.cli import main as cli_main
from dsalpha.config import _KEYS, RunConfig, load_config, parse_kv_file
from dsalpha.ground_state import PetviashviliConfig
import dsalpha.snapshots as snapshots_mod
from dsalpha.snapshots import MAGIC, read_snapshot, write_snapshot
from dsalpha.stepping import StepControl
from conftest import count_calls, random_complex


@pytest.fixture()
def spec():
    return ModelSpec(ModelKind.RDS3, 1.0, -1.0, 1.3, 0.25)


class _DiskFullAfterFirstWrite:
    """A file whose second write fails as it would on a full disk."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)


class TestSnapshots:
    def test_failed_payload_write_keeps_earlier_file(self, tmp_path, rng, spec, monkeypatch):
        g = Grid2D(16, 16, 4.0, 4.0)
        path = tmp_path / "state.snap"
        write_snapshot(path, complex_field(g, random_complex(rng, g)), 0.5, spec)
        before = path.read_bytes()
        monkeypatch.setattr(snapshots_mod, "open",
                            lambda *a, **k: _DiskFullAfterFirstWrite(builtins.open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            write_snapshot(path, complex_field(g, random_complex(rng, g)), 1.0, spec)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["state.snap"]

    def test_bit_exact_round_trip(self, tmp_path, rng, spec):
        g = Grid2D(32, 16, 8.0, 4.0)
        f = complex_field(g, rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16)))
        path = tmp_path / "field.snap"
        write_snapshot(path, f, 1.25, spec)
        back, t, meta = read_snapshot(path)
        assert t == 1.25
        assert back.grid == g
        assert np.array_equal(back.values, f.values)
        assert meta["kind"] is ModelKind.RDS3
        assert (meta["beta"], meta["rho"], meta["nu"], meta["alpha"]) == (1.0, -1.0, 1.3, 0.25)

    def test_truncated_payload_reports_byte_counts(self, tmp_path, rng, spec):
        g = Grid2D(16, 16, 4.0, 4.0)
        f = complex_field(g, random_complex(rng, g))
        path = tmp_path / "trunc.snap"
        write_snapshot(path, f, 0.0, spec)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(SnapshotFormatError, match=r"expected \d+ bytes, got \d+"):
            read_snapshot(path)

    def test_bad_magic(self, tmp_path, rng, spec):
        g = Grid2D(16, 16, 4.0, 4.0)
        path = tmp_path / "magic.snap"
        write_snapshot(path, complex_field(g, random_complex(rng, g)), 0.0, spec)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path)

    def test_version_mismatch(self, tmp_path, rng, spec):
        g = Grid2D(16, 16, 4.0, 4.0)
        path = tmp_path / "ver.snap"
        write_snapshot(path, complex_field(g, random_complex(rng, g)), 0.0, spec)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="version"):
            read_snapshot(path)

    def test_header_magic_value(self):
        assert MAGIC == b"DSA1"

    def test_shorter_than_header(self, tmp_path):
        path = tmp_path / "short.snap"
        path.write_bytes(MAGIC + bytes(6))
        with pytest.raises(SnapshotFormatError, match=r"shorter than its header: 10 < \d+ bytes"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "nx, lx, t, tag, sample, match",
        [(16, -4.0, 0.0, 3, 0.0, "invalid grid"), (15, 4.0, 0.0, 3, 0.0, "invalid grid"),
         (16, 4.0, np.nan, 3, 0.0, "time"), (16, 4.0, 0.0, 9, 0.0, "unknown model tag 9"),
         (16, 4.0, 0.0, 3, np.nan, "non-finite"), (16, 4.0, 0.0, 3, -np.inf, "non-finite")],
        ids=["negative-side", "odd-size", "nan-time", "unknown-tag", "nan-sample", "inf-sample"],
    )
    def test_invalid_header_is_a_format_error(self, tmp_path, nx, lx, t, tag, sample, match):
        # a snapshot that seeds a run must hold finite samples: one nan or inf
        # sample is a format error, not initial data that blows up at once
        path = tmp_path / "header.snap"
        header = snapshots_mod._HEADER.pack(MAGIC, 1, nx, 16, lx, 4.0, t, tag, 1.0, -1.0, 1.0, 0.1)
        payload = np.zeros((nx, 16), dtype="<c16")
        payload[3, 5] = sample
        path.write_bytes(header + payload.tobytes())
        with pytest.raises(SnapshotFormatError, match=match):
            read_snapshot(path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT.replace("ic.kind = gaussian", "ic.kind = file")
                       + f"\nic.path = {path}\noutput.dir = {tmp_path / 'out'}\n")
        assert cli_main(["simulate", str(cfg)]) == 2


CONFIG_TEXT = """
# minimal run configuration
model.kind = rds3
model.beta = 1.0
model.rho = -1.0
model.nu = 1.0
model.alpha = 0.1

grid.nx = 64
grid.ny = 64
grid.lx = 16
grid.ly = 16

step.dt = 1e-3
step.t_end = 0.5
step.adaptive = true

ic.kind = gaussian
ic.amplitude = 1.1
ic.width = 1.5

output.record_every = 4
"""


class TestConfig:
    def test_parses_flat_keys(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(CONFIG_TEXT)
        cfg = load_config(p)
        assert cfg.kind is ModelKind.RDS3
        assert cfg.alpha == 0.1
        assert cfg.nx == 64 and cfg.lx == 16.0
        assert cfg.control.adaptive is True
        assert cfg.record_every == 4

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\nmodel.kind = dse # trailing\nmodel.beta=1\nmodel.rho=-1\nmodel.nu=1\n")
        cfg = load_config(p)
        assert cfg.kind is ModelKind.DSE and cfg.beta == 1.0

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("model.kind = dse\nmodel.beta = 1\nmodel.nu = 1\n")
        with pytest.raises(ConfigError, match="model.rho"):
            load_config(p)

    def test_bad_value_reports_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG_TEXT.replace("grid.nx = 64", "grid.nx = sixty"))
        with pytest.raises(ConfigError, match="grid.nx"):
            load_config(p)

    def test_model_validation_propagates(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG_TEXT.replace("model.alpha = 0.1", "model.alpha = 0"))
        with pytest.raises(ConfigError, match="alpha"):
            load_config(p)

    def test_missing_ic_file(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG_TEXT.replace("ic.kind = gaussian", "ic.kind = file")
                     + "\nic.path = /nonexistent/x.snap\n")
        with pytest.raises(ConfigError, match="not found"):
            load_config(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("model.kind dse\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("line", ["step.t_ned = 2.0", "run.seed = 0"])
    def test_unknown_key_rejected(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG_TEXT + line + "\n")
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_config(p)

    @pytest.mark.parametrize(
        "line",
        [
            "step.dt_max = 1e-4",  # below step.dt = 1e-3
            "step.cfl_const = 0",
            "step.amp_max = -1",
            "ground.gamma = 2.5",  # not a key: the exponent is 3/2
            "ground.nx = 7",
            "reduced.l0 = -1",
            "reduced.l0 = 1e200",  # (l0 * lt0)^2 overflows
            "reduced.l0 = 1e-200",  # (alpha / l0)^2 overflows
            "step.adaptive = maybe",
            "model.nu = nan",  # would zero every E symbol
            "grid.lx = nan",
            "step.t_end = nan",
            "step.amp_max = inf",
            "ground.tol = nan",
            "ic.amplitude = -inf",
            "sweep.alphas = 0.1,nan",
            "sweep.alphas = 0.1,x",
            "ic.width = 0",  # a NaN initial state
            "ic.width = -1.5",
            "reduced.t_end = 0",
            "reduced.t_end = -1",  # the scale ODE run backwards
            "output.record_every = 0",
            "step.t_end = -1",
            "ic.kind = sphere",
            "ic.kind = file",  # without ic.path
        ],
    )
    def test_invalid_value_rejected_at_load(self, tmp_path, line):
        # line replaces the key's line in CONFIG_TEXT, if it has one
        key, raw = (part.strip() for part in line.split("="))
        kept = [ln for ln in CONFIG_TEXT.splitlines() if ln.split("=")[0].strip() != key]
        p = tmp_path / "bad.cfg"
        p.write_text("\n".join(kept) + "\n" + line + "\n")
        with pytest.raises(ConfigError, match=line.split(".")[0]):
            load_config(p)
        assert cli_main(["simulate", str(p)]) == 2
        # the in-code case: a RunConfig built with a value the file format
        # can hold fails the same check
        owner, name, cast = _KEYS.get(key, (None, None, str))
        try:
            value = cast(raw)
        except (ValueError, ConfigError):
            value = None
        if owner is RunConfig and value is not None:
            good = tmp_path / "good.cfg"
            good.write_text(CONFIG_TEXT)
            with pytest.raises(ConfigError, match=line.split(".")[0]):
                replace(load_config(good), **{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("owner, name", [
        (StepControl, "dt"), (StepControl, "dt_min"), (StepControl, "dt_max"),
        (StepControl, "cfl_const"), (StepControl, "t_end"), (StepControl, "amp_max"),
        (PetviashviliConfig, "tol"),
        (ModelSpec, "beta"), (ModelSpec, "rho"), (ModelSpec, "nu"), (ModelSpec, "alpha"),
        (RunConfig, "ic_amplitude"), (RunConfig, "ic_width"), (RunConfig, "ic_center_x"),
        (RunConfig, "ic_center_y"), (RunConfig, "ic_chirp"), (RunConfig, "reduced_l0"),
        (RunConfig, "reduced_lt0"), (RunConfig, "reduced_b0"), (RunConfig, "reduced_t_end"),
    ])
    def test_non_finite_rejected_in_code(self, owner, name, value):
        # an object built in code is checked as a loaded one is: nan and
        # inf are errors in every number field, not only in the file
        model = (ModelKind.RDS3, 1.0, -1.0, 1.0, 0.1)
        build = {StepControl: StepControl, PetviashviliConfig: PetviashviliConfig,
                 ModelSpec: lambda **kw: replace(ModelSpec(*model), **kw),
                 RunConfig: lambda **kw: RunConfig(*model, **kw)}[owner]
        error = ConfigError if owner is RunConfig else ParameterError
        for sign in (1.0, -1.0):
            with pytest.raises(error, match=f"{name} must be finite"):
                build(**{name: sign * value})

    def test_ground_grid_checked_in_code(self):
        with pytest.raises(ConfigError, match="ground: grid sizes"):
            RunConfig(ModelKind.DSE, 1.0, -1.0, 1.0, ground_grid=(7, 7, 1.0, 1.0))
        with pytest.raises(ConfigError, match="ground: box sides"):
            RunConfig(ModelKind.DSE, 1.0, -1.0, 1.0, ground_grid=(8, 8, np.nan, 1.0))

    def test_grid_numbers_checked_without_building_a_grid(self, tmp_path, monkeypatch):
        built = count_calls(monkeypatch, Grid2D, "__init__")
        p = tmp_path / "big.cfg"
        p.write_text(CONFIG_TEXT.replace("= 64", "= 1280")
                     + "ground.nx = 1280\nground.ny = 1280\nground.lx = 48\n")
        cfg = load_config(p)
        assert (cfg.nx, cfg.ground_grid) == (1280, (1280, 1280, 48.0, 16.0))
        assert built == []

    def test_repeated_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG_TEXT + "model.nu = 2.0\n")
        repeat = CONFIG_TEXT.count("\n") + 1
        with pytest.raises(ConfigError, match=f":{repeat}: key 'model.nu' repeats line 6"):
            load_config(p)
        assert cli_main(["simulate", str(p)]) == 2

    def test_step_and_ground_defaults_are_their_owners(self, tmp_path):
        # the four required keys alone: every other setting is the default
        # of the dataclass field it sets, written nowhere else
        p = tmp_path / "min.cfg"
        p.write_text("model.kind = dse\nmodel.beta = 1\nmodel.rho = -1\nmodel.nu = 1\n")
        cfg = load_config(p)
        assert cfg == RunConfig(ModelKind.DSE, 1.0, -1.0, 1.0)
        assert cfg.control == StepControl()
        assert cfg.petviashvili == PetviashviliConfig()

    def test_readme_example_loads(self, tmp_path):
        # every key the README documents must be one load_config reads
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        lines = [ln for ln in block.splitlines() if ln.split("#", 1)[0].strip()]
        assert len(lines) > 30
        lines = [f"output.dir = {tmp_path / 'out'}" if ln.startswith("output.dir") else ln
                 for ln in lines]
        p = tmp_path / "readme.cfg"
        p.write_text("\n".join(lines) + "\n")
        cfg = load_config(p)
        assert cfg.output_dir == str(tmp_path / "out")
        assert cfg.sweep_alphas == [0.05, 0.1, 0.2, 0.4]

    def test_sweep_alphas_parsed(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text(CONFIG_TEXT + "\nsweep.alphas = 0.1, 0.2,0.4\n")
        assert load_config(p).sweep_alphas == [0.1, 0.2, 0.4]
