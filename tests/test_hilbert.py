import decimal
import itertools
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from quantex import (
    Boson,
    CoherentTailError,
    FactorError,
    Hamiltonian,
    HermiticityError,
    NormalizationError,
    SpaceDescriptor,
    StateVector,
    Trajectory,
    TwoLevel,
    basis_state,
    coherent_state,
    min_coherent_cutoff,
)

from kron_reference import (
    annihilation,
    creation,
    dense,
    level_projector,
    number,
    pauli,
    product_state,
    record,
)


def test_space_total_dim_is_product_of_factors():
    sp = SpaceDescriptor((Boson(5), TwoLevel(), Boson(3)))
    assert sp.dims == (5, 2, 3)
    assert sp.total_dim == 30


def test_boson_cutoff_below_two_rejected():
    with pytest.raises(ValueError):
        Boson(1)


@pytest.mark.parametrize("dim", [8.0, 2.5, "3", None])
def test_boson_rejects_a_cutoff_that_is_not_an_integer(dim):
    with pytest.raises(ValueError, match=re.escape(f"got {dim!r}")):
        Boson(dim)


def test_boson_takes_a_numpy_integer_cutoff():
    assert SpaceDescriptor((Boson(np.int64(3)),)).total_dim == 3


def test_annihilation_ladder_entries():
    sp = SpaceDescriptor((Boson(3),))
    out = annihilation(sp, 0) @ basis_state(sp, [2]).amplitudes
    npt.assert_allclose(out, [0.0, math.sqrt(2), 0.0], atol=1e-15)


def test_annihilation_kills_vacuum():
    sp = SpaceDescriptor((Boson(4),))
    out = annihilation(sp, 0) @ basis_state(sp, [0]).amplitudes
    npt.assert_allclose(out, np.zeros(4), atol=0.0)


def test_tensor_embedding_acts_on_one_slot():
    sp = SpaceDescriptor((Boson(5), TwoLevel()))
    out = annihilation(sp, 0) @ basis_state(sp, [1, 0]).amplitudes
    npt.assert_allclose(out, basis_state(sp, [0, 0]).amplitudes, atol=1e-15)


def test_creation_annihilates_top_level():
    sp = SpaceDescriptor((Boson(4),))
    out = creation(sp, 0) @ basis_state(sp, [3]).amplitudes
    npt.assert_allclose(out, np.zeros(4), atol=0.0)


def test_number_eigenvalue():
    sp = SpaceDescriptor((Boson(4),))
    psi = basis_state(sp, [3]).amplitudes
    assert np.vdot(psi, number(sp, 0) @ psi) == pytest.approx(3.0)


def test_number_equals_creation_times_annihilation():
    sp = SpaceDescriptor((Boson(6),))
    prod = creation(sp, 0) @ annihilation(sp, 0)
    npt.assert_allclose(prod, number(sp, 0), atol=1e-14)


def test_ladder_ops_reject_two_level_factor():
    sp = SpaceDescriptor((Boson(3), TwoLevel()))
    with pytest.raises(FactorError):
        annihilation(sp, 1)
    with pytest.raises(FactorError):
        annihilation(sp, 5)


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_truncated_commutator_identity_below_top_level(dim):
    # [a, a+] = 1 except on the top level, where hard truncation breaks it
    sp = SpaceDescriptor((Boson(dim),))
    a = annihilation(sp, 0)
    ad = creation(sp, 0)
    comm = a @ ad - ad @ a
    npt.assert_allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1), atol=1e-14)
    assert comm[dim - 1, dim - 1] == pytest.approx(1 - dim)


def test_pauli_conventions():
    sp = SpaceDescriptor((TwoLevel(),))
    g, e = basis_state(sp, [0]).amplitudes, basis_state(sp, [1]).amplitudes
    npt.assert_allclose(pauli(sp, 0, "x") @ g, e, atol=0.0)
    npt.assert_allclose(pauli(sp, 0, "plus") @ e, np.zeros(2), atol=0.0)
    npt.assert_allclose(pauli(sp, 0, "plus") @ g, e, atol=0.0)
    assert np.vdot(e, pauli(sp, 0, "z") @ e) == pytest.approx(1.0)
    assert np.vdot(g, pauli(sp, 0, "z") @ g) == pytest.approx(-1.0)


def test_sigma_z_expectation_on_balanced_superposition():
    sp = SpaceDescriptor((TwoLevel(),))
    psi = StateVector(sp, np.array([1, 1]) / math.sqrt(2)).amplitudes
    assert abs(np.vdot(psi, pauli(sp, 0, "z") @ psi)) < 1e-15


def test_sigma_pm_match_xy_combination():
    sp = SpaceDescriptor((TwoLevel(),))
    sx, sy = pauli(sp, 0, "x"), pauli(sp, 0, "y")
    npt.assert_allclose(pauli(sp, 0, "plus"), (sx + 1j * sy) / 2, atol=1e-15)
    npt.assert_allclose(pauli(sp, 0, "minus"), (sx - 1j * sy) / 2, atol=1e-15)


def test_pauli_rejects_boson_factor():
    sp = SpaceDescriptor((Boson(3),))
    with pytest.raises(FactorError):
        pauli(sp, 0, "x")


def test_hermiticity_flags():
    # a record holds exactly the hermitian matrices: each hermitian
    # operator goes to a record and back unchanged, a non-hermitian one
    # comes back as something else, and a non-real diagonal is refused
    sp = SpaceDescriptor((Boson(4), TwoLevel()))
    for m in (number(sp, 0), pauli(sp, 1, "x"), pauli(sp, 1, "y"),
              pauli(sp, 1, "z"), np.eye(sp.total_dim),
              annihilation(sp, 0) + creation(sp, 0)):
        npt.assert_array_equal(dense(record(sp, m)), m)
    for m in (annihilation(sp, 0), creation(sp, 0),
              pauli(sp, 1, "plus"), pauli(sp, 1, "minus")):
        assert not np.array_equal(dense(record(sp, m)), m)
    for m in (number(sp, 0) + 1j * pauli(sp, 1, "z"), 1e-300j * np.eye(sp.total_dim)):
        with pytest.raises(HermiticityError):
            record(sp, m)


def test_hamiltonian_record_checks():
    sp = SpaceDescriptor((Boson(3),))
    diag = np.arange(3.0)

    def hops(src, dst, amp=None):
        return (np.array(src), np.array(dst),
                np.full(len(src), 0.5) if amp is None else np.array(amp))

    h = Hamiltonian(sp, diag, hops([1, 2], [0, 1]))
    assert h.diagonal.dtype == float and h.hops[0].dtype == np.intp
    Hamiltonian(sp, diag, hops([], []))       # no hops: a diagonal H
    with pytest.raises(HermiticityError):
        Hamiltonian(sp, diag + [0.0, 1e-300j, 0.0], hops([1], [0]))
    # every other check raises a plain ValueError, not a HermiticityError
    for bad, text in [
        (hops([1, 2], [0]), "one length"),
        (hops([1], [0], [0.5, 0.5]), "one length"),
        (hops([3], [0]), "out of range"),
        (hops([1], [-1]), "out of range"),
        (hops([1], [1]), "itself"),
        (hops([1, 0], [0, 1]), "more than one hop"),
        (hops([2, 1, 2], [1, 0, 1]), "more than one hop"),
        (hops([1], [0], [math.nan]), "finite"),
        (hops([1.0], [0]), "integers"),
    ]:
        with pytest.raises(ValueError, match=text) as err:
            Hamiltonian(sp, diag, bad)
        assert type(err.value) is ValueError
    for bad_diag, text in [(np.arange(4.0), r"\(3,\) diagonal"), ([0.0, math.inf, 1.0], "finite")]:
        with pytest.raises(ValueError, match=text) as err:
            Hamiltonian(sp, bad_diag, hops([], []))
        assert type(err.value) is ValueError


def test_records_copy_writable_inputs_and_take_read_only_ones():
    # a record never freezes or aliases its caller's writable array
    sp = SpaceDescriptor((Boson(2),))
    psi = np.array([1.0, 0.0], dtype=complex)
    state = StateVector(sp, psi)
    psi[1] = 0.5
    assert state.amplitudes.tolist() == [1.0, 0.0]
    rows = np.eye(2, dtype=complex)
    traj = Trajectory(sp, [0.0, 1.0], rows, max_norm_drift=0.0)
    rows[0, 1] = 0.5
    assert traj.amplitudes.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    diag, src = np.array([0.0, 1.0]), np.array([1])
    h = Hamiltonian(sp, diag, (src, np.array([0]), np.array([0.5])))
    diag[0], src[0] = 7.0, 0
    assert h.diagonal.tolist() == [0.0, 1.0] and h.hops[0].tolist() == [1]
    # a read-only array is taken as it is
    rows.setflags(write=False)
    assert StateVector(sp, rows[1]).amplitudes.base is rows
    assert Trajectory(sp, [0.0], rows[1:], max_norm_drift=0.0).amplitudes.base is rows


def test_coherent_state_vacuum_limit():
    sp = SpaceDescriptor((Boson(8),))
    psi = coherent_state(sp, 0, 0.0)
    npt.assert_allclose(psi.amplitudes, basis_state(sp, [0]).amplitudes, atol=0.0)


def test_coherent_state_mean_and_variance():
    sp = SpaceDescriptor((Boson(40),))
    psi = coherent_state(sp, 0, 2.0).amplitudes
    n_psi = number(sp, 0) @ psi
    mean = np.vdot(psi, n_psi).real
    assert mean == pytest.approx(4.0, abs=1e-9)
    assert np.vdot(n_psi, n_psi).real - mean ** 2 == pytest.approx(4.0, abs=1e-8)


def test_coherent_state_rejects_small_cutoff():
    # direct Poisson tail for |alpha|^2 = 25 above n = 10: about 6.7e-4,
    # far beyond COHERENT_TAIL_TOL
    mean = 25.0
    tail = 1.0 - sum(math.exp(-mean) * mean ** n / math.factorial(n)
                     for n in range(10))
    assert tail > 1e-4
    sp = SpaceDescriptor((Boson(10),))
    with pytest.raises(CoherentTailError):
        coherent_state(sp, 0, 5.0)


def test_min_coherent_cutoff_tail_bound():
    from quantex.hilbert import poisson_tail
    for alpha in (0.5, 2.0, 4.0, 6.0):
        dim = min_coherent_cutoff(alpha)
        assert poisson_tail(alpha ** 2, dim) <= 1e-12
        assert poisson_tail(alpha ** 2, dim - 1) > 1e-12 or dim == 2


@pytest.mark.parametrize("alpha, dim", [(4.0, 8), (0.5, 2), (30.0, 900)])
def test_a_tail_error_names_the_smallest_cutoff_that_holds_the_tail(alpha, dim):
    from quantex.hilbert import check_coherent_cutoff
    with pytest.raises(CoherentTailError) as info:
        check_coherent_cutoff(alpha, dim)
    need = int(re.fullmatch(r"cutoff \d+ leaves .*; the smallest cutoff that holds "
                            r"it is (\d+)", str(info.value)).group(1))
    assert need == min_coherent_cutoff(alpha)
    check_coherent_cutoff(alpha, need)
    with pytest.raises(CoherentTailError):
        check_coherent_cutoff(alpha, need - 1)


def test_a_tail_error_past_a_million_levels_names_the_bound():
    # min_coherent_cutoff's sums grow with |alpha|: past 1e6 levels the
    # text bounds the cutoff, which the check confirms, instead of naming it
    from quantex.hilbert import check_coherent_cutoff
    for alpha in (1e3, 1e4, 1e100):
        with pytest.raises(CoherentTailError, match=r"; no cutoff up to 1000000 holds it$"):
            check_coherent_cutoff(alpha, 8)
        with pytest.raises(CoherentTailError):
            check_coherent_cutoff(alpha, 10 ** 6)


def _exact_poisson_tail(mean: float, dim: int) -> float:
    """P(N >= dim) for N ~ Poisson(mean), summed term by term in 60-digit
    decimal arithmetic from the exact binary value of ``mean``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        m = decimal.Decimal(mean)
        term = (-m).exp()
        for k in range(1, dim + 1):
            term = term * m / k
        total, k = decimal.Decimal(0), dim
        while term >= total * decimal.Decimal("1e-40") or k <= mean:
            total += term
            k += 1
            term = term * m / k
        return float(total)


def _check_tail_and_cutoffs(mean, dims, tols, monkeypatch):
    from quantex import hilbert
    for dim in dims:
        assert hilbert.poisson_tail(mean, dim) == pytest.approx(
            _exact_poisson_tail(mean, dim), rel=1e-14, abs=1e-300)
    for tol in tols:
        # the smallest dim >= 2 whose tail mass is within the tolerance: the
        # search holds for any tolerance, so it is checked at several
        monkeypatch.setattr(hilbert, "COHERENT_TAIL_TOL", tol)
        dim = min_coherent_cutoff(math.sqrt(mean))
        assert _exact_poisson_tail(mean, dim) <= tol
        assert dim == 2 or _exact_poisson_tail(mean, dim - 1) > tol


def test_poisson_tail_and_cutoff_match_exact_sum(monkeypatch):
    for mean in (1e-6, 0.01, 0.5, 1.0, 3.7, 4.0, 16.0, 50.0, 400.0):
        _check_tail_and_cutoffs(mean, range(2, 120, 3),
                                (0.5, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15), monkeypatch)


@pytest.mark.parametrize("mean", [750.5, 1e3, 1e4])
def test_poisson_tail_holds_where_exp_of_minus_mean_underflows(mean, monkeypatch):
    # exp(-mean) is 0 in double precision above a mean of about 745; the
    # terms are built from the mode, so the tail needs no exp(-mean)
    assert math.exp(-mean) == 0.0
    s = math.sqrt(mean)
    dims = [2, int(mean - 5 * s), int(mean), int(mean + 3 * s), int(mean + 8 * s),
            int(mean + 12 * s)]
    _check_tail_and_cutoffs(mean, dims, (0.5, 1e-6, 1e-12, 1e-40), monkeypatch)


def test_poisson_tail_far_from_the_mode():
    # a cutoff far below the mean leaves all the mass above it and one far
    # above the mean leaves none; neither builds terms out to the cutoff
    from quantex.hilbert import poisson_tail
    assert poisson_tail(1e10, 10) == 1.0
    assert poisson_tail(1.0, 10 ** 12) == 0.0
    assert poisson_tail(0.0, 0) == 1.0
    assert poisson_tail(0.0, 2) == 0.0


def test_coherent_state_complex_amplitude_phase():
    sp = SpaceDescriptor((Boson(30),))
    psi = coherent_state(sp, 0, 1.0j).amplitudes
    assert np.vdot(psi, annihilation(sp, 0) @ psi) == pytest.approx(1.0j, abs=1e-9)


def test_factor_zero_is_slowest_index():
    sp = SpaceDescriptor((Boson(3), TwoLevel()))
    psi = basis_state(sp, [2, 1])
    assert psi.amplitudes[2 * 2 + 1] == 1.0


def test_state_norm_enforced():
    sp = SpaceDescriptor((TwoLevel(),))
    with pytest.raises(NormalizationError):
        StateVector(sp, np.array([1.0, 1.0]))


def test_state_rejects_nan_amplitudes():
    with pytest.raises(NormalizationError):
        StateVector(SpaceDescriptor((TwoLevel(),)), [math.nan, 0])


def test_marginal_populations_sum_to_one():
    rng = np.random.default_rng(3)
    sp = SpaceDescriptor((Boson(4), TwoLevel(), Boson(3)))
    v = rng.normal(size=24) + 1j * rng.normal(size=24)
    psi = StateVector(sp, v / np.linalg.norm(v))
    for k in range(3):
        pops = psi.marginal_populations(k)
        assert pops.shape == (sp.dims[k],)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)


def _dyadic_state(space, rng):
    """Amplitudes whose populations are powers of two summing to exactly 1
    (two of 1/4, four of 1/16, sixteen of 1/64) on random basis states, each
    with a phase among 1, i, -1, -i: every sum of populations is exact."""
    mags = np.repeat([1 / 2, 1 / 4, 1 / 8], [2, 4, 16])
    amp = np.zeros(space.total_dim, dtype=complex)
    phases = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, mags.size)]
    amp[rng.permutation(space.total_dim)[:mags.size]] = mags * phases
    return amp


def test_basis_layout_matches_the_kronecker_embedding():
    # every route from a flat basis index to the factor levels, held
    # exactly to np.kron embeddings, on a space with a two-level factor
    # between two modes of different cutoffs
    sp = SpaceDescriptor((Boson(4), TwoLevel(), Boson(3)))
    units = [np.eye(d) for d in sp.dims]
    for k in (0, 2):
        npt.assert_array_equal(sp.levels[k], number(sp, k).diagonal().real)
    excited = pauli(sp, 1, "plus") @ pauli(sp, 1, "minus")
    npt.assert_array_equal(sp.levels[1], excited.diagonal().real)
    with pytest.raises(ValueError):
        sp.levels[0, 0] = 1
    for levels in itertools.product(*map(range, sp.dims)):
        npt.assert_array_equal(basis_state(sp, levels).amplitudes,
                               product_state(u[lv] for u, lv in zip(units, levels)))
    alpha = 0.006 + 0.003j      # its tail above a 3-level mode is within tolerance
    mode = coherent_state(SpaceDescriptor((Boson(3),)), 0, alpha).amplitudes
    npt.assert_array_equal(coherent_state(sp, 2, alpha).amplitudes,
                           product_state([units[0][0], units[1][0], mode]))

    rng = np.random.default_rng(11)
    rows = np.array([_dyadic_state(sp, rng) for _ in range(6)])
    traj = Trajectory(sp, np.arange(6.0), rows, max_norm_drift=0.0)
    for k, dim in enumerate(sp.dims):
        ref = np.array([[np.vdot(a, level_projector(sp, k, lv) @ a).real
                         for lv in range(dim)] for a in rows])
        for a, pops in zip(rows, ref):
            npt.assert_array_equal(StateVector(sp, a).marginal_populations(k), pops)
        for lv in range(dim):
            npt.assert_array_equal(traj.population_series(k, lv), ref[:, lv])
    # the guards watch the top level of each bosonic factor, one index of
    # the levels checked above
    assert sp._bosons == (0, 2)


def test_immutability_of_matrices_and_amplitudes():
    sp = SpaceDescriptor((Boson(3),))
    h = record(sp, number(sp, 0) + annihilation(sp, 0) + creation(sp, 0))
    psi = basis_state(sp, [1])
    for array in (h.diagonal, *h.hops):
        with pytest.raises(ValueError):
            array[0] = 5
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
