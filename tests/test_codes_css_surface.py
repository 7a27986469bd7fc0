"""Tests for CSS codes, the rotated surface code and the [[8,3,2]] code."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_gf2_reduce, reference_logicals

from repro.codes.color_832 import Color832Code
from repro.codes.css import CSSCode, gf2_nullspace, gf2_rank, gf2_rowspace_contains
from repro.codes.pauli import mutually_commuting
from repro.codes.surface_code import RotatedSurfaceCode


class TestGF2:
    def test_rank_identity(self):
        assert gf2_rank(np.eye(4, dtype=np.uint8)) == 4

    def test_rank_dependent_rows(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        assert gf2_rank(m) == 2  # third row = sum of first two

    def test_rowspace_contains(self):
        m = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        assert gf2_rowspace_contains(m, np.array([1, 0, 1]))
        assert not gf2_rowspace_contains(m, np.array([1, 0, 0]))

    def test_nullspace_orthogonal(self):
        m = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
        basis = gf2_nullspace(m)
        assert basis.shape[0] == 2
        assert not np.any((m @ basis.T) % 2)

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**30))
    @settings(max_examples=30)
    def test_rank_nullity(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        assert gf2_rank(m) + gf2_nullspace(m).shape[0] == cols

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**30))
    @settings(max_examples=40)
    def test_elimination_matches_row_by_row_oracle(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        reduced, pivots = reference_gf2_reduce(m)
        assert gf2_rank(m) == len(pivots)
        free = [c for c in range(cols) if c not in pivots]
        expected = np.zeros((len(free), cols), dtype=np.uint8)
        for i, column in enumerate(free):
            expected[i, column] = 1
            expected[i, pivots] = reduced[: len(pivots), column]
        np.testing.assert_array_equal(gf2_nullspace(m), expected)


def _assert_reference_logicals(code: CSSCode) -> None:
    xs, zs = reference_logicals(code.hx, code.hz, code.num_logical)
    assert len(xs) == len(code._logical_xs) == code.num_logical
    for got, want in zip(code._logical_xs + code._logical_zs, xs + zs):
        np.testing.assert_array_equal(got, want)


class TestLogicalSelection:
    """The lazy logical choice picks the eager oracle's representatives."""

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
    def test_surface_code(self, d):
        _assert_reference_logicals(RotatedSurfaceCode(d).css)

    def test_color_832(self):
        _assert_reference_logicals(Color832Code().css)

    def test_steane(self):
        _assert_reference_logicals(TestCSSCode().steane())


class TestCSSCode:
    def steane(self) -> CSSCode:
        h = np.array(
            [[1, 1, 1, 1, 0, 0, 0], [1, 1, 0, 0, 1, 1, 0], [1, 0, 1, 0, 1, 0, 1]],
            dtype=np.uint8,
        )
        return CSSCode(h, h, name="steane")

    def test_steane_parameters(self):
        code = self.steane()
        assert code.num_qubits == 7
        assert code.num_logical == 1

    def test_steane_logical_weight_3(self):
        code = self.steane()
        assert code.logical_x(0).weight == 3
        assert code.logical_z(0).weight == 3

    def test_steane_validates(self):
        self.steane().validate()

    def test_css_condition_enforced(self):
        hx = np.array([[1, 1, 0]], dtype=np.uint8)
        hz = np.array([[1, 0, 0]], dtype=np.uint8)
        with pytest.raises(ValueError):
            CSSCode(hx, hz)

    def test_stabilizers_commute_as_paulis(self):
        code = self.steane()
        assert mutually_commuting(code.x_stabilizers() + code.z_stabilizers())

    def test_logical_anticommutes_with_partner(self):
        code = self.steane()
        assert not code.logical_x(0).commutes_with(code.logical_z(0))

    def test_is_logical_predicates(self):
        code = self.steane()
        xv = np.zeros(7, dtype=np.uint8)
        for q in code.logical_x(0).support:
            xv[q] = 1
        assert code.is_x_logical(xv)
        assert not code.is_x_logical(code.hx[0])  # a stabilizer is not logical


class TestRotatedSurfaceCode:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_counts(self, d):
        code = RotatedSurfaceCode(d)
        assert code.num_data == d * d
        assert code.num_ancilla == d * d - 1
        assert code.num_physical == 2 * d * d - 1
        assert len(code.x_plaquettes) == (d * d - 1) // 2
        assert len(code.z_plaquettes) == (d * d - 1) // 2

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_validates(self, d):
        RotatedSurfaceCode(d).validate()

    def test_encodes_one_logical(self):
        assert RotatedSurfaceCode(5).css.num_logical == 1

    @pytest.mark.parametrize("d", [3, 5])
    def test_logical_supports_are_weight_d(self, d):
        code = RotatedSurfaceCode(d)
        assert len(code.logical_x_support()) == d
        assert len(code.logical_z_support()) == d

    def test_logical_column_is_x_logical(self):
        code = RotatedSurfaceCode(5)
        v = np.zeros(code.num_data, dtype=np.uint8)
        for q in code.logical_x_support(2):
            v[q] = 1
        assert code.css.is_x_logical(v)

    def test_logical_row_is_z_logical(self):
        code = RotatedSurfaceCode(5)
        v = np.zeros(code.num_data, dtype=np.uint8)
        for q in code.logical_z_support(3):
            v[q] = 1
        assert code.css.is_z_logical(v)

    def test_plaquette_weights(self):
        code = RotatedSurfaceCode(5)
        for plaq in code.x_plaquettes + code.z_plaquettes:
            assert plaq.weight in (2, 4)

    def test_boundary_check_counts(self):
        # d-1 weight-2 checks split between the two bases.
        code = RotatedSurfaceCode(5)
        w2_x = sum(1 for p in code.x_plaquettes if p.weight == 2)
        w2_z = sum(1 for p in code.z_plaquettes if p.weight == 2)
        assert w2_x == 4
        assert w2_z == 4

    def test_even_distance_rejected(self):
        with pytest.raises(ValueError):
            RotatedSurfaceCode(4)

    def test_matching_incidence(self):
        code = RotatedSurfaceCode(5)
        for basis in ("X", "Z"):
            incidence = code.checks_on_data(basis)
            bulk = sum(1 for entry in incidence if len(entry) == 2)
            boundary = sum(1 for entry in incidence if len(entry) == 1)
            assert bulk + boundary == code.num_data
            # Two opposing boundary columns/rows of d qubits each.
            assert boundary == 2 * code.distance


class TestColor832:
    def test_parameters(self):
        code = Color832Code()
        assert code.css.num_qubits == 8
        assert code.css.num_logical == 3

    def test_validates(self):
        Color832Code().css.validate()

    def test_logical_supports(self):
        code = Color832Code()
        for i in range(3):
            assert len(code.logical_x_support(i)) == 4  # faces
            assert len(code.logical_z_support(i)) == 2  # edges

    def test_logical_pairing(self):
        code = Color832Code()
        for i in range(3):
            face = set(code.logical_x_support(i))
            for j in range(3):
                edge = set(code.logical_z_support(j))
                overlap = len(face & edge)
                assert overlap % 2 == (1 if i == j else 0) % 2

    def test_t_pattern_balanced(self):
        # 4 T and 4 T-dagger, matching the 8T factory input pattern.
        pattern = Color832Code().t_pattern()
        assert sum(1 for s in pattern if s == 1) == 4
        assert sum(1 for s in pattern if s == -1) == 4

    def test_transversal_t_implements_ccz(self):
        # The headline property behind the 8T-to-CCZ factory.
        assert Color832Code().ccz_phase_check()

    def test_single_z_errors_detected(self):
        code = Color832Code()
        for v in range(8):
            assert code.z_error_detected(1 << v)

    def test_weight_two_errors_undetected_and_logical(self):
        # All 28 weight-2 Z patterns evade detection; each corrupts the
        # logical state (this is the 28 p^2 coefficient of Eq. 8).
        code = Color832Code()
        harmful = 0
        for a in range(8):
            for b in range(a + 1, 8):
                mask = (1 << a) | (1 << b)
                assert not code.z_error_detected(mask)
                if code.z_error_is_logical(mask):
                    harmful += 1
        assert harmful == 28

    def test_some_weight_four_errors_are_stabilizers(self):
        code = Color832Code()
        face_mask = 0
        for v in code.logical_x_support(0):
            pass
        # A Z face (e.g. bit0 = 0) is a stabilizer: harmless and undetected.
        mask = sum(1 << v for v in range(8) if (v & 1) == 0)
        assert not code.z_error_detected(mask)
        assert not code.z_error_is_logical(mask)

    def test_codeword_supports_are_complementary(self):
        code = Color832Code()
        for bits in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            lo, hi = code.codeword_support(bits)
            assert lo ^ hi == 0xFF
