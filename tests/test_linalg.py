"""Matrix layer: eigenvalues, norms, triangularity."""

import math
import tracemalloc

import numpy as np
import pytest

from bohrlab.linalg import (
    NonFiniteError,
    NotHermitianError,
    as_complex_matrix,
    frobenius_norm,
    hermitian_eigenvalues,
    is_strictly_upper,
    is_upper,
    max_abs,
    modulus,
    operator_norm,
    re_part,
    require_finite,
    singular_values,
    trace_norm,
    trace_pairing,
)
from bohrlab.series import BohrInstance
from bohrlab.witnesses import general_witness


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return 0.5 * (a + a.conj().T)


class TestValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.zeros((2, 3)))

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match="must have order >= 1"):
            as_complex_matrix(np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.nan, 0], [0, 0]]))
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.inf, 0], [0, 0]]))

    def test_result_is_readonly_copy(self):
        src = np.zeros((2, 2))
        out = as_complex_matrix(src)
        assert out.dtype == np.complex128
        with pytest.raises(ValueError):
            out[0, 0] = 1.0
        src[0, 0] = 7.0
        assert out[0, 0] == 0.0

    def test_frozen_owning_complex_array_is_adopted(self):
        src = np.array([[1.0, 2j], [0.0, 3.0 - 1j]])
        src.setflags(write=False)
        assert as_complex_matrix(src) is src

    def test_other_inputs_are_copied(self):
        frozen = np.arange(9, dtype=np.complex128).reshape(3, 3)
        frozen.setflags(write=False)
        floats = np.arange(4.0).reshape(2, 2)
        floats.setflags(write=False)
        for value in (
            np.arange(4, dtype=np.complex128).reshape(2, 2),  # writable
            frozen[:2, :2],  # read-only view
            floats,  # read-only, not complex
        ):
            out = as_complex_matrix(value)
            assert out is not value
            assert not np.shares_memory(out, value)
            assert out.dtype == np.complex128
            assert not out.flags.writeable
            assert np.array_equal(out, value)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)]
    )
    def test_rejects_nonfinite_on_both_paths(self, bad):
        value = np.zeros((3, 3), dtype=np.complex128)
        value[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_complex_matrix(value)
        value.setflags(write=False)
        with pytest.raises(ValueError, match="non-finite"):
            as_complex_matrix(value)

    def test_accepts_finite_entries_whose_sum_overflows(self):
        for entries in ([[1e308, 1e308], [0.0, 0.0]], [[1e308j, 0.0], [1e308j, -1e308]]):
            value = np.array(entries, dtype=np.complex128)
            assert np.array_equal(as_complex_matrix(value), value)
            value.setflags(write=False)
            assert as_complex_matrix(value) is value

    def test_validation_allocates_no_matrix_temporary(self):
        n = 300
        value = np.zeros((n, n), dtype=np.complex128)
        value.setflags(write=False)
        tracemalloc.start()
        try:
            as_complex_matrix(value)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n

    def test_instance_shares_its_frozen_arrays(self):
        inst = general_witness(5)
        again = BohrInstance(inst.A, inst.S, inst.seq)
        assert again.A is inst.A
        assert again.S is inst.S
        assert again.seq.matrices[0] is inst.seq.matrices[0]


class TestBasics:
    def test_re_part_halves_upper_entries(self):
        a = np.array([[1.0, -2.0], [0.0, 1.0]], dtype=complex)
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert max_abs(re_part(a) - expected) == 0.0

    def test_re_part_identity_fixed(self):
        assert max_abs(re_part(np.eye(4)) - np.eye(4)) == 0.0

    def test_re_part_imaginary_scalar(self):
        assert re_part(np.array([[1j]]))[0, 0] == 0.0

    def test_re_part_of_huge_finite_entries_stays_finite(self):
        # (a + a*) / 2 overflows to inf here; a/2 + a*/2 does not
        a = np.diag([1.5e308, 0.0])
        assert np.array_equal(re_part(a), a)

    def test_trace_pairing_is_entrywise_sum(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 4)
        b = random_complex(rng, 4)
        direct = np.trace(a @ b.conj().T)
        assert abs(trace_pairing(a, b) - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_trace_cyclicity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = random_complex(rng, n)
            b = random_complex(rng, n)
            scale = operator_norm(a) * operator_norm(b) * n
            gap = abs(np.trace(a @ b) - np.trace(b @ a))
            assert gap <= 1e-12 * max(1.0, scale)


class TestEigenvalues:
    def test_all_ones_3x3(self):
        values = hermitian_eigenvalues(np.ones((3, 3)))
        assert np.allclose(values, [3.0, 0.0, 0.0], atol=1e-12)

    def test_diagonal_sorted(self):
        values = hermitian_eigenvalues(np.diag([3.0, 4.0, 3.0]))
        assert np.allclose(values, [4.0, 3.0, 3.0], atol=0.0)

    def test_rank_one_outer_product(self):
        v = np.array([1.0, math.sqrt(2.0), 1.0])
        values = hermitian_eigenvalues(np.outer(v, v))
        assert np.allclose(values, [4.0, 0.0, 0.0], atol=1e-12)

    def test_nearly_hermitian_uses_hermitian_part(self):
        # eigvalsh reads one triangle; an asymmetry below tol must not
        # leak in, so it sees the Hermitian part
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            h = random_hermitian(rng, n)
            skew = np.triu(random_complex(rng, n), 1)
            near = h + 5e-11 * skew / max_abs(skew)
            want = np.sort(np.linalg.eigvalsh(0.5 * (near + near.conj().T)))[::-1]
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(hermitian_eigenvalues(near) - want)) <= 1e-12 * scale

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matches_lapack_on_random_hermitian(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            n = int(rng.integers(1, 12))
            h = random_hermitian(rng, n) * rng.uniform(0.1, 50.0)
            got = hermitian_eigenvalues(h)
            want = np.sort(np.linalg.eigvalsh(h))[::-1]
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            h = random_hermitian(rng, n)
            tr = float(np.trace(h).real)
            assert abs(float(np.sum(hermitian_eigenvalues(h))) - tr) <= 1e-10 * max(1.0, abs(tr))


class TestNonFinite:
    def test_nan_entries_are_not_hermitian(self):
        # a nan deviation compares false against any tolerance
        for h in (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
            with pytest.raises(NotHermitianError):
                hermitian_eigenvalues(h)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "h",
        [
            [[1.0, np.inf], [np.inf, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, complex(np.inf, 1.0)], [complex(np.inf, -1.0), 1.0]],
            # finite, but the deviation 2e308 overflows
            [[0.0, 1e308], [-1e308, 0.0]],
        ],
        ids=["inf-pair", "inf-diagonal", "complex-inf", "overflowing-deviation"],
    )
    def test_inf_entries_are_not_hermitian_and_do_not_warn(self, h):
        h = np.array(h, dtype=np.complex128)
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues(h)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hermitian_part_of_huge_finite_entries_stays_finite(self):
        # (h + h*) / 2 overflows to inf here; h/2 + h*/2 does not
        h = np.array([[1.0, 1e308 + 1e308j], [1e308 - 1e308j, 1.0]])
        top = math.hypot(1e308, 1e308)  # the eigenvalues 1 +- |h_01| round to +-top
        values = hermitian_eigenvalues(h)
        assert np.allclose(values, [top, -top], rtol=1e-14, atol=0.0)

    def test_hermitian_part_matches_the_plain_formula_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for n in range(1, 40):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            # Hermitian up to a rounding-sized skew part, which the
            # Hermitian part removes
            h = a + a.conj().T + 1e-13 * (a - a.conj().T)
            plain = (h + h.conj().T) / 2.0
            assert np.array_equal(hermitian_eigenvalues(h), np.linalg.eigvalsh(plain)[::-1])

    def test_modulus_names_an_overflow(self):
        assert modulus(3 + 4j, "z") == 5.0
        assert modulus(-2.5, "z") == 2.5
        assert modulus(complex(1e308, 1e308) / 2, "z") == abs(complex(1e308, 1e308) / 2)
        with pytest.raises(NonFiniteError, match=r"^\|z\| is not finite: the input overflows"):
            modulus(complex(1.5e308, 1.5e308), "|z|")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scale_whose_modulus_overflows_bounds_the_deviation(self):
        # |1.5e308 + 1.5e308j| is beyond the float range, so max|a| is inf;
        # the bound tol max|a| = 2.1e298 still rejects a deviation of 1e300
        huge = 1.5e308 + 1.5e308j
        assert not is_upper(np.array([[0.0, huge], [1e300, 0.0]]))
        assert not is_strictly_upper(np.array([[0.0, huge], [1e300, 0.0]]))
        assert not is_strictly_upper(np.array([[1e300, huge], [0.0, 0.0]]))
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues(np.array([[0.0, huge], [huge.conjugate() + 1e300, 0.0]]))
        # a deviation within the bound still passes
        assert is_upper(np.array([[0.0, huge], [1e290, 0.0]]))
        assert is_strictly_upper(np.array([[0.0, huge], [0.0, 0.0]]))

    def test_require_finite(self):
        assert require_finite(2.5, "x") == 2.5
        values = np.array([1.0, -3.0])
        assert require_finite(values, "x") is values
        for bad in (math.inf, -math.inf, math.nan, np.array([1.0, np.inf]), complex(1.0, math.nan)):
            with pytest.raises(NonFiniteError, match="the thing is not finite"):
                require_finite(bad, "the thing")


class TestNorms:
    def test_shift_matrix_norm_one(self):
        for n in (2, 5, 11):
            assert abs(operator_norm(np.eye(n, k=1)) - 1.0) <= 1e-14

    def test_scalar_matrix(self):
        assert abs(operator_norm(2.0 * np.eye(6)) - 2.0) <= 1e-14

    def test_trace_norm_nilpotent(self):
        assert abs(trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) - 1.0) <= 1e-14

    def test_trace_norm_diagonal(self):
        assert abs(trace_norm(np.diag([3.0, 4.0, 3.0])) - 10.0) <= 1e-13

    def test_trace_norm_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_norm_dominates_trace_and_is_dominated(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            a = random_complex(rng, n)
            tn = trace_norm(a)
            assert tn >= abs(np.trace(a)) - 1e-10
            assert tn >= operator_norm(a) - 1e-12

    def test_singular_values_against_eigh_route(self):
        # second route: singular values are the square roots of the
        # eigenvalues of A*A, computed by the Hermitian eigensolver (eigh)
        # rather than by the SVD
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            a = random_complex(rng, n)
            got = singular_values(a)
            gram = hermitian_eigenvalues(a.conj().T @ a)
            want = np.sqrt(np.clip(gram, 0.0, None))
            scale = max(1.0, float(want[0]) if want.size else 0.0)
            assert np.max(np.abs(got - want)) <= 1e-10 * scale

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            a = random_complex(rng, n)
            u, _ = np.linalg.qr(random_complex(rng, n))
            v, _ = np.linalg.qr(random_complex(rng, n))
            assert abs(operator_norm(u @ a @ v) - operator_norm(a)) <= 1e-10 * max(
                1.0, operator_norm(a)
            )

    def test_hoelder_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = random_complex(rng, n)
            b = random_complex(rng, n)
            lhs = abs(np.trace(a @ b))
            mid = trace_norm(a @ b)
            rhs = trace_norm(a) * operator_norm(b)
            scale = max(1.0, rhs)
            assert lhs <= mid + 1e-10 * scale
            assert mid <= rhs + 1e-10 * scale

    def test_frobenius_matches_definition(self):
        rng = np.random.default_rng(10)
        a = random_complex(rng, 5)
        assert abs(frobenius_norm(a) - math.sqrt(float(np.sum(np.abs(a) ** 2)))) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_frobenius_survives_an_overflowing_sum_of_squares(self):
        # |a_ij|^2 overflows from about 1.3e154 on; the norm does not
        assert frobenius_norm(np.diag([1.5e308, 0.0])) == pytest.approx(1.5e308, rel=1e-15)
        assert frobenius_norm(np.full((3, 3), 1e200 + 0j)) == pytest.approx(3e200, rel=1e-15)
        # beyond the float range, from the sum or from one entry's modulus
        assert frobenius_norm(np.diag([1.5e308, 1.5e308])) == math.inf
        assert frobenius_norm(np.array([[1.5e308 + 1.5e308j]])) == math.inf


class TestTriangularity:
    def test_shift_is_strictly_upper(self):
        assert is_strictly_upper(np.eye(4, k=1))
        assert is_upper(np.eye(4, k=1))

    def test_identity_is_upper_not_strictly(self):
        assert not is_strictly_upper(np.eye(3))
        assert is_upper(np.eye(3))

    def test_full_matrix_is_neither(self):
        theta, k = 0.9642857142857144, 14
        m = np.array([[-theta / (2 * k), 1j * theta], [1j * theta, theta / (2 * k)]])
        assert not is_strictly_upper(m)
        assert not is_upper(m)

    def test_tolerance_is_relative(self):
        # a unit entry below the diagonal is 1e-12 of a 1e12 matrix, within
        # DEFAULT_TOL = 1e-10, but 1e-9 of a 1e9 one, beyond it
        for top, passes in ((1e12, True), (1e9, False)):
            noisy = np.triu(np.full((3, 3), top), 1)
            noisy[2, 0] = 1.0
            assert is_strictly_upper(noisy) is passes
            assert is_upper(noisy) is passes
