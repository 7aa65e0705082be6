"""Core data types: grids, profiles, parameter validation."""

import math
import tracemalloc

import numpy as np
import pytest

from oscxfer import cli, types
from oscxfer.types import (
    CouplingProfile,
    ProfileKind,
    ProfileSingularityError,
    SystemParams,
    TimeGrid,
    TransferState,
    _elementwise,
    profile_values,
)


class TestTimeGrid:
    def test_basic_properties(self):
        g = TimeGrid(2.0, 100)
        assert g.dt == pytest.approx(0.02)
        assert g.n_nodes == 101
        nodes = g.nodes()
        assert nodes[0] == 0.0
        assert nodes[-1] == pytest.approx(2.0)
        assert np.all(np.diff(nodes) > 0)

    # the last two have a subnormal step: 5e-324/10 even rounds to 0
    @pytest.mark.parametrize("t_end, n", [(0.0, 10), (-1.0, 10), (1.0, 1),
                                          (1.0, 0), (math.inf, 10),
                                          (5e-324, 10), (1e-310, 10)])
    def test_rejects_degenerate_grids(self, t_end, n):
        with pytest.raises(ValueError):
            TimeGrid(t_end, n)


class TestSystemParams:
    def test_validate_clean(self):
        # gamma_loss >= gamma and omega0 near gamma are both accepted
        p = SystemParams(gamma=1.0, transfer_time=5.0, gamma_loss=2.5,
                         eta=1.0, omega0=5.0)
        assert (p.gamma, p.transfer_time, p.gamma_loss, p.eta, p.omega0) == (
            1.0, 5.0, 2.5, 1.0, 5.0)

    def test_validate_errors(self):
        # one ValueError names every violated invariant, in a fixed order
        with pytest.raises(ValueError) as info:
            SystemParams(gamma=0.0, transfer_time=-2.0, gamma_loss=-1.0,
                         eta=1.5, omega0=math.inf)
        assert str(info.value) == (
            "gamma must be positive and finite; "
            "transfer_time must be positive and finite; "
            "gamma_loss must be >= 0; eta must lie in (0, 1]; "
            "omega0 must be positive and finite")

    def test_weak_damping_warning(self, capsys):
        # gamma within a factor `margin` of the carrier: the CLI warns, and
        # the params construct
        p = cli._build_params(cli.RunConfig(omega0=5.0, margin=10.0))
        assert p.omega0 == 5.0
        assert capsys.readouterr().err == (
            "warning: weak damping violated: gamma*10 exceeds omega0 "
            "(rotating-frame treatment marginal)\n")

    def test_eta_out_of_range_is_error(self):
        # the integrator and the optimizer trust their params: given this
        # one they return F(T) = 1.22, above the bound of 1
        with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\]$"):
            SystemParams(gamma=1.0, transfer_time=5.0, eta=1.5)

    @pytest.mark.parametrize("field, value, message", [
        ("gamma", 0.0, "gamma must be positive and finite"),
        ("gamma", -1.0, "gamma must be positive and finite"),
        ("gamma", math.inf, "gamma must be positive and finite"),
        ("transfer_time", math.nan, "transfer_time must be positive and finite"),
        ("transfer_time", -2.0, "transfer_time must be positive and finite"),
        ("gamma_loss", -0.5, "gamma_loss must be >= 0"),
        ("gamma_loss", math.inf, "gamma_loss must be >= 0"),
        ("eta", 0.0, "eta must lie in (0, 1]"),
        ("eta", math.nan, "eta must lie in (0, 1]"),
        ("omega0", 0.0, "omega0 must be positive and finite"),
        ("omega0", math.nan, "omega0 must be positive and finite"),
    ])
    def test_each_invariant_is_refused(self, field, value, message):
        kwargs = {"gamma": 1.0, "transfer_time": 5.0, field: value}
        with pytest.raises(ValueError) as info:
            SystemParams(**kwargs)
        assert str(info.value) == message


class TestCouplingProfile:
    def test_constant(self):
        c = CouplingProfile.constant(0.7)
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        assert profile_values(c, p, 0.3) == 0.7
        assert profile_values(c, p, 1.999) == 0.7
        # a float in gives a float out; an array keeps its shape
        assert type(profile_values(c, p, 0.3)) is float
        assert profile_values(c, p, np.zeros((2, 3))).shape == (2, 3)

    def test_zero_truncation_rejected(self):
        with pytest.raises(ValueError):
            CouplingProfile.optimal(truncation=0.0)

    def test_auto_cap_default(self):
        c = CouplingProfile.optimal(truncation=0.01)
        assert c.gamma1_max == pytest.approx(1.0 / 0.02)

    def test_explicit_cap_kept(self):
        c = CouplingProfile.optimal(truncation=0.01, gamma1_max=3.0)
        assert c.gamma1_max == 3.0

    def test_optimal_profile_shape(self):
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        c = CouplingProfile.optimal(truncation=0.05)
        # gamma/(exp(2 gamma (T-t)) - 1), increasing toward the cut
        t = np.array([0.0, 0.5, 1.0, 1.5])
        vals = profile_values(c, p, t)
        expected = 1.0 / np.expm1(2.0 * (2.0 - t))
        np.testing.assert_allclose(vals, expected, rtol=1e-12)
        assert np.all(np.diff(vals) > 0)

    def test_hold_window_returns_cap(self):
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        c = CouplingProfile.optimal(truncation=0.05, gamma1_max=7.0)
        assert profile_values(c, p, 1.96) == 7.0
        assert profile_values(c, p, 2.0) == 7.0

    def test_untruncated_singularity_raises(self):
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        c = CouplingProfile.optimal(truncation=None)
        with pytest.raises(ProfileSingularityError):
            profile_values(c, p, 2.0)

    def test_sampled_left_cell_lookup(self):
        grid = TimeGrid(1.0, 4)
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        c = CouplingProfile.sampled(grid, vals)
        p = SystemParams(gamma=1.0, transfer_time=1.0)
        assert profile_values(c, p, 0.0) == 1.0
        assert profile_values(c, p, 0.1) == 1.0    # inside first cell
        assert profile_values(c, p, 0.25) == 2.0   # exactly on a node
        assert profile_values(c, p, 0.6) == 3.0
        assert profile_values(c, p, 1.0) == 5.0

    def test_sampled_node_snap_tolerates_roundoff(self):
        # a node time reconstructed with roundoff must land on that node
        grid = TimeGrid(3.0, 10_000)
        vals = np.arange(10_001, dtype=float)
        c = CouplingProfile.sampled(grid, vals)
        p = SystemParams(gamma=1.0, transfer_time=3.0)
        t = 9999 * (3.0 / 10_000)   # floating reconstruction of node 9999
        assert profile_values(c, p, t) == 9999.0

    def test_sampled_values_are_contiguous(self):
        # a profile file's column was kept as loadtxt's strided view, which
        # made each cell lookup a strided gather and kept all four columns
        grid = TimeGrid(1.0, 4)
        data = np.column_stack([grid.nodes(), [0.1, 0.2, 0.3, 0.4, 0.5],
                                np.full(5, np.pi), np.full(5, np.e)])
        c = CouplingProfile.sampled(grid, data[:, 1])
        assert c.values.flags.c_contiguous
        assert c.values.tobytes() == data[:, 1].tobytes()

    @pytest.mark.parametrize("fields", [{"values": np.ones(5)},
                                        {"grid": TimeGrid(1.0, 4)}],
                             ids=["no-grid", "no-values"])
    def test_sampled_needs_grid_and_values(self, fields):
        with pytest.raises(ValueError, match="needs a grid and node values"):
            CouplingProfile(ProfileKind.SAMPLED_GRID, **fields)

    def test_values_refuse_a_strided_out(self):
        # a strided out would be filled through a copy, never seen again
        p = SystemParams(gamma=1.0, transfer_time=1.0)
        out = np.empty((3, 2))[:, 0]
        with pytest.raises(ValueError, match="C-contiguous"):
            profile_values(CouplingProfile.constant(1.0), p, np.zeros(3),
                           out=out)

    def test_sampled_length_mismatch(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            CouplingProfile.sampled(grid, np.ones(3))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            CouplingProfile.constant(-0.1)
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            CouplingProfile.sampled(grid, np.array([1.0, -1.0, 1.0, 1.0, 1.0]))

    def test_nan_cap_rejected(self):
        # a NaN cap would hold the tail at NaN and end the run in a
        # non-finite coefficient; like a NaN constant rate, it is refused
        with pytest.raises(ValueError, match="gamma1_max"):
            CouplingProfile.optimal(0.01, gamma1_max=float("nan"))
        with pytest.raises(ValueError, match="gamma1_max"):
            CouplingProfile.optimal(None, gamma1_max=float("nan"))

    @pytest.mark.parametrize("cap", [0.0, -1.0])
    def test_nonpositive_cap_rejected(self, cap):
        # the optimizer's box and the validity windows refuse it too, so a
        # zero cap no longer runs the integrator before it is refused
        with pytest.raises(ValueError, match="gamma1_max must be positive"):
            CouplingProfile.optimal(0.01, gamma1_max=cap)

    def test_only_the_optimal_profile_has_a_hold_window(self):
        grid = TimeGrid(1.0, 4)
        kinds = {ProfileKind.CONSTANT: {"gamma1": 2.0},
                 ProfileKind.SAMPLED_GRID: {"grid": grid,
                                            "values": np.full(5, 2.0)}}
        for kind, fields in kinds.items():
            for hold in ({"truncation": 0.25}, {"gamma1_max": 9.0}):
                with pytest.raises(ValueError, match="hold window"):
                    CouplingProfile(kind, **fields, **hold)


class TestTransferState:
    def test_fidelity_is_final_a21(self):
        grid = TimeGrid(1.0, 2)
        p = SystemParams(gamma=1.0, transfer_time=1.0)
        s = TransferState(params=p, grid=grid,
                          a11=np.array([1.0, 0.5, 0.25]),
                          a21=np.array([0.0, 0.3, 0.6]),
                          a22=np.array([1.0, 0.9, 0.8]))
        assert s.fidelity == 0.6
        assert type(s.fidelity) is float


def _list_map(fn, x):
    """The reference: ``fn`` over a list of the elements as Python floats."""
    xs = np.asarray(x, dtype=float).ravel().tolist()
    return np.array(list(map(fn, xs)), dtype=float)


class TestElementwise:
    EDGES = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                      -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300,
                      709.0, -745.2, 1e-5, -1e-5])

    CASES = ["random", "edges", "empty", "strided", "reversed", "2-d",
             "fortran", "size-1", "size-2", "size-3", "scalar"]

    @staticmethod
    def force_map(monkeypatch):
        # the probe finds a difference, so every call maps fn
        monkeypatch.setattr(types, "_libm_ufunc", lambda fn: None)

    @pytest.fixture(params=["numpy-loop", "map"])
    def path(self, request, monkeypatch):
        if request.param == "map":
            self.force_map(monkeypatch)
        return request.param

    @pytest.mark.parametrize("fn", [math.exp, math.expm1])
    @pytest.mark.parametrize("case", CASES)
    def test_equals_list_map(self, fn, case):
        rng = np.random.default_rng(7)
        big = rng.uniform(-700.0, 700.0, 20_000) * 10.0 ** -rng.integers(
            0, 12, 20_000)
        x = {"random": big,
             "edges": self.EDGES,
             "empty": np.empty(0),
             "strided": big[::3],
             "reversed": big[::-1],
             "2-d": big[:600].reshape(20, 30).T,
             "fortran": np.asfortranarray(big[:600].reshape(20, 30)),
             "size-1": big[:1],
             "size-2": big[:2],
             "size-3": big[:3],
             "scalar": np.float64(-0.25)}[case]
        out = _elementwise(fn, x)
        want = _list_map(fn, x)
        assert out.dtype == np.float64
        assert out.shape == want.shape == (np.size(x),)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fn", [math.exp, math.expm1])
    @pytest.mark.parametrize("case", CASES)
    def test_map_equals_list_map(self, fn, case, monkeypatch):
        self.force_map(monkeypatch)
        self.test_equals_list_map(fn, case)

    def test_overflow_propagates(self):
        with pytest.raises(OverflowError):
            _elementwise(math.exp, np.array([0.0, 1000.0]))
        with pytest.raises(OverflowError):
            _elementwise(math.expm1, np.array([1000.0]))
        # a NaN beside the overflow must not hide it from the scan
        with pytest.raises(OverflowError):
            _elementwise(math.exp, np.array([math.nan, 1000.0]))
        # inf itself does not overflow
        assert _elementwise(math.exp, np.array([math.inf, 1.0])).tolist() == [
            math.inf, math.e]

    @pytest.mark.parametrize("fn", [math.exp, math.expm1])
    def test_writes_into_the_buffer(self, fn):
        # the result is buf's reversed view, and neither the loop nor the
        # overflow scan allocates an array of its size (an 8192-byte bool
        # mask did, before the scan was one reduction)
        x = np.random.default_rng(5).uniform(-40.0, 40.0, 8192)
        buf = np.empty(x.size)
        _elementwise(fn, x, buf)  # the probe allocates once per process
        tracemalloc.start()
        try:
            out = _elementwise(fn, x, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.size
        assert out.base is buf and out.strides == (-8,)
        assert out.tobytes() == _list_map(fn, x).tobytes()

    @pytest.mark.parametrize("fn", [math.exp, math.expm1])
    def test_single_values(self, fn, path):
        # numpy runs its SIMD kernel on a length-1 array, whatever the
        # strides: about 5 % of these values would move a bit
        xs = np.random.default_rng(11).uniform(-40.0, 40.0, 400)
        got = [_elementwise(fn, xs[j:j + 1]).tobytes() for j in range(xs.size)]
        assert got == [_list_map(fn, xs[j:j + 1]).tobytes()
                       for j in range(xs.size)]

    # exp and expm1 overflow between 709.78 and 709.79; inf itself does not
    @pytest.mark.parametrize("fn", [math.exp, math.expm1])
    @pytest.mark.parametrize("arg", [709.78, 709.79])
    def test_overflows_where_math_does(self, fn, arg, path):
        x = np.array([-1.0, arg, math.inf, 2.0])
        if arg == 709.79:
            with pytest.raises(OverflowError):
                fn(arg)
            with pytest.raises(OverflowError):
                _elementwise(fn, x)
        else:
            assert _elementwise(fn, x).tobytes() == _list_map(fn, x).tobytes()

    @pytest.mark.parametrize("fn, ufunc", [(math.exp, np.exp),
                                           (math.expm1, np.expm1)])
    def test_probe_accepts_numpys_loop(self, fn, ufunc):
        # on x86-64 with glibc 2.36 and numpy 2.4, numpy's strided loop is
        # libm's: a numpy or libc whose loop moves a bit sends every call
        # back to the map, which this test reports instead of a slower run
        assert types._libm_ufunc(fn) is ufunc

