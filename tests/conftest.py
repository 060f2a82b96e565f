import pytest

from nearfield import SystemConfig, build_spherical_codebook, codebook, desk_profile, phase_modes


@pytest.fixture(scope="session")
def small_config():
    """Tiny geometry for fast unit tests."""
    return SystemConfig(
        carrier_freq_hz=30e9,
        bandwidth_hz=100e6,
        num_subcarriers=4,
        num_antennas=64,
        antenna_spacing_m=0.005,
        num_rf_chains=2,
        num_pilot_slots=8,
    )


@pytest.fixture(scope="session")
def small_codebook(small_config):
    return build_spherical_codebook(small_config, 0.55, 0.25)


@pytest.fixture(scope="session")
def desk_spec():
    return desk_profile()


@pytest.fixture(scope="session")
def desk_codebook(desk_spec):
    return build_spherical_codebook(desk_spec.system, desk_spec.delta, desk_spec.r_min_m)


@pytest.fixture
def record_fills(monkeypatch):
    """Call to start recording what fills a dense matrix or builds a grid:
    "matrix" per `phase_modes.ring_matrix` call (every ring-built matrix, in
    any dtype), "dft" per `DftBasis.dense` call and "grid" per
    `_RingLayout.grid` call. Returns the list they are appended to."""

    def start():
        built = []
        fill, dft, grid = phase_modes.ring_matrix, phase_modes.DftBasis.dense, codebook._RingLayout.grid
        # `codebook` imports `ring_matrix` by name, so both names are patched.
        for module in (phase_modes, codebook):
            monkeypatch.setattr(module, "ring_matrix", lambda *args: built.append("matrix") or fill(*args))
        monkeypatch.setattr(phase_modes.DftBasis, "dense", lambda self: built.append("dft") or dft(self))
        monkeypatch.setattr(codebook._RingLayout, "grid", lambda self: built.append("grid") or grid(self))
        return built

    return start
