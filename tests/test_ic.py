"""Information Causality conditions, coefficient quadratics and the RAC."""
import dataclasses
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import sympy as sp

import reference
from reference import coeffs
from nlbox import boxes
from nlbox.cabello import _SUCCESS, SuccessMetrics, cabello_box, extract_q
from nlbox.ic import (
    _BIASES,
    _IC_BOUND,
    ICCheck,
    ICQuantities,
    RACOutcome,
    ic_ab_satisfied,
    ic_ba_satisfied,
    ic_cabello_lhs,
    ic_quantities,
    max_success_under_ic,
    rac_simulate,
)
from nlbox.localrandom import lr_cases, lr_constraints
from nlbox.search import DomainError
from nlbox.quantum import max_cabello_qm, max_hardy_qm, quantum_box, tsirelson_scenario


class TestICQuantities:
    def test_pr_box(self):
        q = ic_quantities(boxes.pr_box())
        assert (q.p_i_a, q.p_ii_a, q.p_i_b, q.p_ii_b) == (1.0, 1.0, 1.0, 1.0)
        assert (q.e_i, q.e_ii, q.f_i, q.f_ii) == (1.0, 1.0, 1.0, 1.0)

    def test_uniform_box(self):
        q = ic_quantities(boxes.uniform_box())
        assert (q.p_i_a, q.p_ii_a, q.p_i_b, q.p_ii_b) == (0.5, 0.5, 0.5, 0.5)
        assert (q.e_i, q.e_ii, q.f_i, q.f_ii) == (0.0, 0.0, 0.0, 0.0)

    def test_deterministic_vertex(self):
        q = ic_quantities(boxes.local_vertex(0, 0, 0, 0))
        assert q.p_i_a == 1.0
        assert q.p_ii_a == 0.5


class TestConditions:
    def test_pr_violates_both(self):
        ab = ic_ab_satisfied(boxes.pr_box())
        ba = ic_ba_satisfied(boxes.pr_box())
        assert ab.lhs == 2.0 and not ab.satisfied
        assert ba.lhs == 2.0 and not ba.satisfied
        assert ab.margin == -1.0

    def test_uniform_satisfies(self):
        chk = ic_ab_satisfied(boxes.uniform_box())
        assert chk.lhs == 0.0 and chk.satisfied

    def test_tsirelson_box_on_boundary(self):
        box = quantum_box(tsirelson_scenario())
        assert abs(ic_ab_satisfied(box).lhs - 1.0) <= 1e-6
        assert abs(ic_ba_satisfied(box).lhs - 1.0) <= 1e-6

    def test_local_mixtures_satisfy(self):
        verts = reference.all_local_vertices()
        rng = np.random.default_rng(5)
        for _ in range(100):
            box = boxes.mix(verts, rng.dirichlet(np.ones(16)))
            assert ic_ab_satisfied(box).satisfied
            assert ic_ba_satisfied(box).satisfied


class TestCoefficientLevel:
    """The vertex-stack forms of nlbox against the hand-written r, s, u, v
    forms of tests/reference.py."""

    def test_vertex_stack_rows_are_the_hand_rows(self):
        eye = np.eye(11)
        np.testing.assert_array_equal(_SUCCESS, [reference.success(e) for e in eye])
        np.testing.assert_array_equal(_BIASES, np.array([reference.biases(e) for e in eye]).T)

    def test_rsuv_examples(self):
        assert reference.rsuv(coeffs(c5=0.1, c10=0.1, c11=0.8)) == (0.0, 0.0, 0.0, 0.2)
        assert reference.rsuv(coeffs(c11=1)) == (0.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(reference.rsuv(coeffs(c5=0.4, c6=0.2, c9=0.4)),
                                   (0.0, 0.2, 0.4, 0.6), rtol=0, atol=1e-15)
        for c in (coeffs(c5=0.1, c10=0.1, c11=0.8), coeffs(c11=1),
                  coeffs(c5=0.4, c6=0.2, c9=0.4)):
            np.testing.assert_allclose(_BIASES @ c, reference.biases(c), rtol=0, atol=1e-15)

    def test_lhs_spot_values(self):
        lhs = ic_cabello_lhs(coeffs(c5=0.1, c10=0.1, c11=0.8))
        assert np.allclose(lhs, (0.04, 0.04), atol=1e-12)
        lhs = ic_cabello_lhs(coeffs(c5=0.4, c6=0.2, c9=0.4))
        assert np.allclose(lhs, (0.08, 0.40), atol=1e-12)
        lhs = ic_cabello_lhs(coeffs(c5=0.4, c6=0.1, c10=0.4, c11=0.1))
        assert np.allclose(lhs, (0.82, 0.82), atol=1e-12)

    def test_matches_box_level_biases(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            c = rng.dirichlet(np.ones(11))
            lhs1, lhs2 = ic_cabello_lhs(c)
            hand1, hand2 = reference.ic_lhs(c)
            q = ic_quantities(cabello_box(c))
            assert abs(lhs1 - hand1) <= 1e-12 and abs(lhs2 - hand2) <= 1e-12
            assert abs(hand1 - (q.e_i ** 2 + q.e_ii ** 2)) <= 1e-12
            assert abs(hand2 - (q.f_i ** 2 + q.f_ii ** 2)) <= 1e-12


IC_BOUND = (np.sqrt(2) - 1) / 2


def assert_certified(result, bound=IC_BOUND):
    assert abs(result.value - bound) <= 1e-9
    assert result.upper_bound - result.value <= 1e-9
    assert result.converged
    assert all(s >= 0.0 for s in result.constraint_slacks)
    assert result.point.min() >= 0.0
    assert abs(result.point.sum() - 1.0) <= 1e-12


def assert_closed_form(result):
    assert result.method == "closed-form" and result.evaluations == 0
    assert result.upper_bound == _IC_BOUND
    assert 0.0 <= result.upper_bound - result.value <= 1e-15
    assert min(result.constraint_slacks) >= 0.0


class TestMaxUnderIC:
    def test_unconstrained_recovers_ns_bound(self):
        # without the IC conditions the LP reaches the no-signaling vertex
        result = reference.cutting_planes(constrained=False)
        assert abs(result.value - 0.5) <= 1e-6
        assert result.method == "cutting-plane"

    def test_constrained_quick(self):
        result = max_success_under_ic(restarts=8)
        assert abs(result.value - (np.sqrt(2) - 1) / 2) <= 1e-3
        assert all(s >= -1e-6 for s in result.constraint_slacks)

    def test_extra_equalities_cannot_increase(self):
        system = lr_constraints(9)
        result = max_success_under_ic(restarts=8, equalities=(system.a, system.b))
        assert result.value <= (np.sqrt(2) - 1) / 2 + 1e-6

    def test_quadratic_inequalities_on_simplex(self):
        # q4 - q1 under the two coefficient-level quadratic conditions
        result = max_success_under_ic()
        assert_certified(result)
        assert len(result.constraint_slacks) == 2
        lhs = ic_cabello_lhs(result.point)
        assert result.constraint_slacks == (1.0 - lhs[0], 1.0 - lhs[1])
        # the optimum sits on both constraint boundaries
        assert max(result.constraint_slacks) <= 1e-9
        assert_closed_form(result)

    def test_result_on_simplex(self):
        for result in (max_success_under_ic(), reference.cutting_planes(constrained=False)):
            assert result.point.shape == (11,)
            assert result.point.min() >= 0.0
            assert abs(result.point.sum() - 1.0) <= 1e-12
            assert result.starts_used == 1

    def test_same_result_for_any_restarts_and_seed(self):
        for cid in [None, *lr_cases()]:
            system = None if cid is None else lr_constraints(cid)
            eqs = None if cid is None else (system.a, system.b)
            ref = max_success_under_ic(equalities=eqs)
            for restarts, seed in ((1, 0), (8, 5), (64, 123)):
                result = max_success_under_ic(restarts=restarts, seed=seed, equalities=eqs)
                assert result.value == ref.value
                assert result.constraint_slacks == ref.constraint_slacks
                np.testing.assert_array_equal(result.point, ref.point)

    def test_every_case_reaches_the_bound(self):
        # case 1 is where a single SLSQP run from the barycentre stops at 0.1413
        for cid in lr_cases():
            system = lr_constraints(cid)
            result = max_success_under_ic(equalities=(system.a, system.b))
            assert_certified(result)
            assert np.abs(system.a @ result.point - system.b).max() <= 1e-12
            assert_closed_form(result)

    def test_cutting_planes_agree_with_the_closed_form(self):
        # the LP path is the independent second derivation of the bound
        closed = max_success_under_ic()
        for cid in [None, *lr_cases()]:
            system = None if cid is None else lr_constraints(cid)
            result = reference.cutting_planes(None if cid is None else (system.a, system.b))
            assert result.method == "cutting-plane" and result.evaluations == 2, cid
            assert result.converged
            assert abs(result.value - closed.value) <= 1e-12
            assert abs(result.upper_bound - closed.upper_bound) <= 1e-12

    def test_ic_path_does_not_import_scipy_optimize(self):
        code = textwrap.dedent("""
            import contextlib, io, sys
            import nlbox.cli
            from nlbox import lr_cases, lr_constraints, max_success_under_ic
            with contextlib.redirect_stdout(io.StringIO()):
                assert nlbox.cli.main(["max", "--model", "ic"]) == 0
            for cid in lr_cases():
                system = lr_constraints(cid)
                max_success_under_ic(equalities=(system.a, system.b))
            print('scipy.optimize' in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_inconsistent_equalities_raise(self):
        a = np.zeros((2, 11))
        a[:, 0] = 1.0
        b = np.array([1.0, 0.0])
        with pytest.raises(DomainError):
            max_success_under_ic(equalities=(a, b))
        for constrained in (True, False):
            with pytest.raises(DomainError):
                reference.cutting_planes((a, b), constrained=constrained)

    def test_equalities_excluding_c11_raise_under_ic(self):
        # c11 = 0 leaves feasible points, but not the point c11 = 1 that the
        # LP solver pulls toward
        a = np.eye(11)[10:]
        with pytest.raises(DomainError):
            max_success_under_ic(equalities=(a, np.zeros(1)))
        with pytest.raises(DomainError):
            reference.cutting_planes((a, np.zeros(1)))
        result = reference.cutting_planes((a, np.zeros(1)), constrained=False)
        assert result.converged and result.method == "cutting-plane"

    def test_equalities_excluding_c6_raise(self):
        # c6 = 0 holds at c11 = 1 and leaves IC-feasible points, but the
        # closed form is certified only where the equalities hold at c6 = 1
        a = np.eye(11)[5:6]
        assert reference.cutting_planes((a, np.zeros(1))).converged
        with pytest.raises(DomainError, match="c6 = 1"):
            max_success_under_ic(equalities=(a, np.zeros(1)))

    @pytest.mark.parametrize("a_shape, b", [((2, 11), [0.0]), ((2, 11), 0.0), ((2, 10), [0.0, 0.0]),
                                            ((11,), [0.0]), ((1, 11), [[0.0]])])
    def test_malformed_equalities_raise_naming_both_shapes(self, a_shape, b):
        # a zero A holds at every point, so only the shapes can fail
        with pytest.raises(DomainError) as exc:
            max_success_under_ic(equalities=(np.zeros(a_shape), b))
        assert str(exc.value) == (f"equalities need A of shape (k, 11) and b of shape (k,), "
                                  f"not {a_shape} and {np.shape(b)}")

    def test_closed_form_witness_bit_for_bit(self):
        result = max_success_under_ic()
        expected = np.zeros(11)
        expected[5], expected[10] = 0.7071067811865475, 0.29289321881345254
        assert result.point.tolist() == expected.tolist()
        assert result.constraint_slacks == (2.220446049250313e-16, 2.220446049250313e-16)
        assert result.value == 0.20710678118654746
        assert result.upper_bound == _IC_BOUND == 0.20710678118654757

    def test_witness_is_a_fresh_array(self):
        first = max_success_under_ic()
        first.point[:] = 0.0
        assert max_success_under_ic().point[5] == 0.7071067811865475


class TestCertificate:
    """Exact (sympy) derivation of the IC bound on the Cabello face."""

    @staticmethod
    def exact(array):
        # each double converts to the rational it stores, without rounding
        return sp.Matrix([[sp.Rational(float(v)) for v in row] for row in array])

    def test_success_is_affine_in_the_bias_sum(self):
        success, biases = self.exact(_SUCCESS[None, :]), self.exact(_BIASES)
        residuals = [success[k] + sp.Rational(1, 2) + sp.Rational(1, 4) * sum(biases[:, k])
                     for k in range(11)]
        assert residuals == [0] * 11

    def test_dual_certificate(self):
        success, biases = self.exact(_SUCCESS[None, :]), self.exact(_BIASES)
        r2 = sp.sqrt(2)
        mu, lam = sp.Rational(-1, 2), [r2 / 4, r2 / 4]
        u = [sp.Matrix([-1, -1]) / r2] * 2
        assert all(l >= 0 for l in lam) and all(sp.simplify(v.dot(v)) == 1 for v in u)
        # c . success = mu (1 . c) + sum_i lam_i u_i . (M_i c) - z . c, where
        # M_1, M_2 are the E and F rows; z >= 0 is the dual slack of c >= 0
        z = (mu * sp.ones(1, 11) + lam[0] * u[0].T * biases[:2, :]
             + lam[1] * u[1].T * biases[2:, :] - success)
        assert [sp.simplify(v) for v in z] == [0] * 11
        bound = sp.simplify(mu + lam[0] + lam[1])
        assert sp.simplify(bound - (r2 - 1) / 2) == 0
        # and the closed-form point attains it, on both disc boundaries
        c = sp.zeros(11, 1)
        c[5], c[10] = 1 / r2, 1 - 1 / r2
        assert sp.simplify((success * c)[0] - bound) == 0
        for rows in (biases[:2, :], biases[2:, :]):
            assert sp.simplify(((rows * c).T * (rows * c))[0]) == 1
        assert abs(_IC_BOUND - sp.N(bound, 30)) <= 1e-16


class TestTsirelson:
    def test_quantum_maxima_obey_the_ic_bound(self):
        # on this face q4 - q1 = -(S + 2)/4, so every quantum value is below
        # the IC (and Tsirelson) bound
        ic_value = max_success_under_ic().value
        values = [max_cabello_qm()[0].value, max_hardy_qm()[0].value]
        values += [max_cabello_qm(cid)[0].value for cid in lr_cases()]
        assert max(values) <= ic_value + 1e-12


class TestMutualInformation:
    def test_perfect_correlation(self):
        assert abs(reference.mutual_information([[0.5, 0.0], [0.0, 0.5]]) - 1.0) <= 1e-12

    def test_independence(self):
        assert abs(reference.mutual_information(np.full((2, 2), 0.25))) <= 1e-12

    @staticmethod
    def numpy_reference(joint):
        def entropy(p):
            p = p[p > 0]
            return float(-(p * np.log2(p)).sum())
        return entropy(joint.sum(axis=1)) + entropy(joint.sum(axis=0)) - entropy(joint.ravel())

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(12)
        for k in range(2000):
            joint = rng.dirichlet(np.full(4, 0.5))
            joint[rng.random(4) < 0.25 * (k % 4)] = 0.0  # zero entries, up to all four
            if joint.sum() > 0:
                joint /= joint.sum()
            joint = joint.reshape(2, 2)
            assert abs(reference.mutual_information(joint) - self.numpy_reference(joint)) <= 1e-15


def rac_by_enumeration(box):
    """The 2->1 RAC over the box, enumerated over Alice's data bits (X0, X1)
    and the outcomes: Alice feeds X0 xor X1 and sends X0 xor a, Bob feeds
    i and guesses X_i as the message xor b.  Returns the success
    probabilities and mutual informations of bits 0 and 1."""
    joints = [np.zeros((2, 2)), np.zeros((2, 2))]
    for x0 in (0, 1):
        for x1 in (0, 1):
            data = (x0, x1)
            for i in (0, 1):
                for a in (0, 1):
                    for b in (0, 1):
                        guess = x0 ^ a ^ b
                        joints[i][data[i], guess] += 0.25 * box.prob(a, b, x0 ^ x1, i)
    return ([j[0, 0] + j[1, 1] for j in joints],
            [reference.mutual_information(j) for j in joints])


class TestRac:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(15)
        verts = reference.all_local_vertices() + reference.all_nonlocal_vertices()
        mixtures = [boxes.mix(verts, rng.dirichlet(np.ones(24))) for _ in range(500)]
        for box in verts + [boxes.uniform_box()] + mixtures:
            (p0, p1), (mi0, mi1) = rac_by_enumeration(box)
            out = rac_simulate(box)
            assert abs(out.p_bit0 - p0) <= 1e-15 and abs(out.p_bit1 - p1) <= 1e-15
            assert abs(out.mi_bit0 - mi0) <= 1e-14 and abs(out.mi_bit1 - mi1) <= 1e-14

    def test_mutual_information_is_one_minus_binary_entropy(self):
        rng = np.random.default_rng(16)
        verts = reference.all_local_vertices() + reference.all_nonlocal_vertices()
        for _ in range(500):
            out = rac_simulate(boxes.mix(verts, rng.dirichlet(np.full(24, 0.3))))
            for p, mi in ((out.p_bit0, out.mi_bit0), (out.p_bit1, out.mi_bit1)):
                joint = 0.5 * np.array([[p, 1.0 - p], [1.0 - p, p]])
                assert abs(mi - TestMutualInformation.numpy_reference(joint)) <= 1e-15

    def test_pr_box_gives_two_bits(self):
        out = rac_simulate(boxes.pr_box())
        assert out.p_bit0 == 1.0 and out.p_bit1 == 1.0
        assert out.total == 2.0

    def test_deterministic_vertex(self):
        out = rac_simulate(boxes.local_vertex(0, 0, 0, 0))
        assert out.p_bit0 == 1.0
        assert abs(out.mi_bit0 - 1.0) <= 1e-12
        assert abs(out.mi_bit1) <= 1e-12
        assert abs(out.total - 1.0) <= 1e-12

    def test_uniform_box_gives_nothing(self):
        out = rac_simulate(boxes.uniform_box())
        assert abs(out.total) <= 1e-12

    def test_all_local_vertices_at_most_one_bit(self):
        for v in reference.all_local_vertices():
            assert rac_simulate(v).total <= 1.0 + 1e-9


# Each result record as the PR box yields it, built by hand, and its repr.
RECORDS = [
    (extract_q, SuccessMetrics(0.5, 0.5, 0.5, 0.0),
     "SuccessMetrics(q1=0.5, q2=0.5, q3=0.5, q4=0.0)"),
    (ic_quantities, ICQuantities(1.0, 1.0, 1.0, 1.0),
     "ICQuantities(p_i_a=1.0, p_ii_a=1.0, p_i_b=1.0, p_ii_b=1.0)"),
    (ic_ab_satisfied, ICCheck(2.0, False), "ICCheck(lhs=2.0, satisfied=False)"),
    (rac_simulate, RACOutcome(1.0, 1.0, 1.0, 1.0),
     "RACOutcome(p_bit0=1.0, p_bit1=1.0, mi_bit0=1.0, mi_bit1=1.0)"),
]


@pytest.mark.parametrize("make, record, text", RECORDS, ids=lambda r: getattr(r, "__name__", ""))
class TestResultRecords:
    """The records are frozen dataclasses with a hand-written __init__."""

    def test_made_equals_built(self, make, record, text):
        made = make(boxes.pr_box())
        assert made == record and hash(made) == hash(record) and repr(made) == text
        assert type(record)(**dataclasses.asdict(record)) == record

    def test_assignment_is_refused(self, make, record, text):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, 0.25)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field.name)
        assert repr(record) == text

    def test_value_semantics(self, make, record, text):
        names = [field.name for field in dataclasses.fields(record)]
        values = dataclasses.astuple(record)
        assert list(dataclasses.asdict(record)) == names
        other = dataclasses.replace(record, **{names[0]: 0.25})
        assert other != record and getattr(other, names[0]) == 0.25
        assert dataclasses.astuple(other)[1:] == values[1:]
        assert len({record, type(record)(*values), other}) == 2
        again = pickle.loads(pickle.dumps(record))
        assert again == record and repr(again) == text
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(again, names[0], 0.25)
