import builtins
import errno
import os
from pathlib import Path

import numpy as np
import pytest

from dsalpha import ConfigError, Grid2D, ModelKind, ModelSpec, SnapshotFormatError, complex_field
from dsalpha.cli import main as cli_main
from dsalpha.config import load_config, parse_kv_file
from dsalpha.ground_state import PetviashviliConfig
import dsalpha.snapshots as snapshots_mod
from dsalpha.snapshots import MAGIC, read_snapshot, write_snapshot
from dsalpha.stepping import StepControl
from conftest import random_complex


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
        p.write_text(CONFIG_TEXT + "\nic.kind = file\nic.path = /nonexistent/x.snap\n")
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
            "ground.gamma = 2.5",
            "ground.nx = 7",
            "reduced.l0 = -1",
        ],
    )
    def test_invalid_value_rejected_at_load(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG_TEXT + line + "\n")
        with pytest.raises(ConfigError, match=line.split(".")[0]):
            load_config(p)
        assert cli_main(["simulate", str(p)]) == 2

    def test_step_and_ground_defaults_are_their_owners(self, tmp_path):
        p = tmp_path / "min.cfg"
        p.write_text("model.kind = dse\nmodel.beta = 1\nmodel.rho = -1\nmodel.nu = 1\n")
        cfg = load_config(p)
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
