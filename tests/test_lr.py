"""Local randomness, the 15 case constraint systems and the table fixture."""
import numpy as np
import pytest

import reference
from reference import coeffs
from cli_harness import run_cli
from nlbox import boxes, localrandom
from nlbox.boxes import CoefficientError, marginal
from nlbox.cabello import CABELLO_VERTICES, cabello_box
from nlbox.ic import ic_cabello_lhs, max_success_under_ic
from nlbox.localrandom import (
    LR_INPUTS,
    Table2Row,
    case_inputs,
    feasibility_witness,
    is_locally_random,
    load_table2_fixture,
    lr_cases,
    lr_constraints,
    verify_table2,
)


def input_row(inp):
    """The input's marginal-1/2 condition as one affine row: its P(outcome 0)
    at each Cabello vertex, which the weights must average to 1/2."""
    party, x = inp[-1], int(inp[0])
    return np.array([marginal(v, party, x) for v in CABELLO_VERTICES]), 0.5


class TestIsLocallyRandom:
    def test_pr_box_all_inputs(self):
        for inp in LR_INPUTS:
            assert is_locally_random(boxes.pr_box(), inp)

    def test_deterministic_vertex(self):
        assert not is_locally_random(boxes.local_vertex(0, 0, 0, 0), "0_A")

    def test_balanced_mixture(self):
        box = boxes.mix(
            [boxes.local_vertex(0, 0, 0, 0), boxes.local_vertex(0, 1, 0, 1)],
            [0.5, 0.5],
        )
        assert is_locally_random(box, "0_A")

    def test_unknown_input(self):
        with pytest.raises(ValueError):
            is_locally_random(boxes.pr_box(), "2_A")

    @pytest.mark.parametrize("label", [None, ["0_A"], "2_A"])
    def test_unknown_or_unhashable_label_is_a_value_error(self, label):
        with pytest.raises(ValueError, match="unknown input") as exc:
            is_locally_random(boxes.pr_box(), label)
        assert type(exc.value) is ValueError


class TestCaseEnumeration:
    def test_fifteen_cases(self):
        assert lr_cases() == tuple(range(1, 16))
        sizes = [len(case_inputs(cid)) for cid in lr_cases()]
        assert sizes == [4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1]

    def test_case_12_relations(self):
        system = lr_constraints(12)
        assert system.inputs == ("0_A",)
        assert "c1 + c2 + c7 + c8 + c9 + c10 = eta" in system.relations
        assert "c3 + c4 + c5 = eta" in system.relations

    def test_case_1_zero_variables(self):
        assert reference.zero_variables(lr_constraints(1)) == (2, 4, 7, 8, 9)

    def test_case_9_relations(self):
        relations = lr_constraints(9).relations
        assert "c1 + c2 = eta - c5" in relations
        assert "c3 + c4 = eta - c5" in relations
        assert "c5 = c7 + c8 + c9 + c10" in relations

    def test_bad_case_id(self):
        # a bool or a float, even an integral one, is not a case id
        rng = np.random.default_rng(0)
        for case_id in (0, 16, -1, True, False, np.True_, 1.0, 1.5, np.float64(2.0), "1", None):
            for call in (lambda: lr_constraints(case_id), lambda: case_inputs(case_id),
                         lambda: feasibility_witness(case_id),
                         lambda: reference.sample_case_point(case_id, rng)):
                with pytest.raises(ValueError, match="case id must be 1..15"):
                    call()

    @pytest.mark.parametrize("make", [int, np.int64, np.int32, np.uint8])
    def test_integer_case_ids_give_the_int_keyed_system(self, make):
        for cid in lr_cases():
            system = lr_constraints(make(cid))
            assert type(system.case_id) is int and system.case_id == cid
            assert system is lr_constraints(cid)
            assert case_inputs(make(cid)) == case_inputs(cid)
        np.testing.assert_array_equal(feasibility_witness(make(5)),
                                      feasibility_witness(5))


class TestConstraintMarginalEquivalence:
    def test_forward(self):
        # solutions of a case's system make all its inputs locally random
        for cid in lr_cases():
            rng = np.random.default_rng(cid)
            for _ in range(50):
                c = reference.sample_case_point(cid, rng)
                box = cabello_box(c)
                for inp in case_inputs(cid):
                    assert is_locally_random(box, inp, tol=1e-9)

    def test_converse(self):
        # simplex points off the system leave some input non-random
        for cid in lr_cases():
            system = lr_constraints(cid)
            rng = np.random.default_rng(100 + cid)
            checked = 0
            while checked < 50:
                c = rng.dirichlet(np.ones(11))
                if system.satisfied_by(c, tol=1e-6):
                    continue
                box = cabello_box(c)
                assert not all(
                    is_locally_random(box, inp, tol=1e-9)
                    for inp in case_inputs(cid)
                )
                checked += 1

    def test_single_input_rows(self):
        # each input's affine row, from the vertex marginals and from the
        # hand relation, holds iff its marginal is 1/2
        rng = np.random.default_rng(77)
        for _ in range(200):
            c = rng.dirichlet(np.ones(11))
            box = cabello_box(c)
            for inp in LR_INPUTS:
                for row, rhs in (input_row(inp), reference.input_row(inp)):
                    assert (abs(row @ c - rhs) <= 1e-9) == is_locally_random(
                        box, inp, tol=1e-9
                    )


def stacked_input_rows(case_id):
    """The case's system composed from the single-input rows: the
    vertex-marginal rows of its inputs and the simplex row, as [A | b]."""
    rows = [np.append(*input_row(inp)) for inp in case_inputs(case_id)]
    return np.vstack(rows + [np.append(np.ones(11), 1.0)])


class TestTable1Derivation:
    def test_written_systems_span_the_stacked_input_rows(self):
        # the hand-written relations are the input rows plus the listed zeros
        rank = np.linalg.matrix_rank
        for cid in lr_cases():
            system = lr_constraints(cid)
            written = np.vstack([np.column_stack([system.a, system.b]),
                                 np.append(np.ones(11), 1.0)])
            derived = np.vstack([stacked_input_rows(cid)]
                                + [np.eye(12)[k - 1] for k in reference.zero_variables(system)])
            assert rank(written) == rank(derived) == rank(np.vstack([written, derived])), cid

    def test_zero_variables_are_the_forced_zeros(self):
        # c_k is forced to 0 iff its maximum over the nonnegative solutions
        # of the stacked input rows is 0
        from scipy.optimize import linprog

        for cid in lr_cases():
            stacked = stacked_input_rows(cid)
            forced = set()
            for k in range(11):
                lp = linprog(-np.eye(11)[k], A_eq=stacked[:, :11], b_eq=stacked[:, 11],
                             bounds=(0.0, None), method="highs")
                assert lp.status == 0, (cid, k, lp.message)
                if -lp.fun <= 1e-12:
                    forced.add(k + 1)
            assert forced == set(reference.zero_variables(lr_constraints(cid))), cid


class TestFeasibilityWitness:
    def test_case_1_corner_is_valid(self):
        c = coeffs(c11=1)
        assert lr_constraints(1).satisfied_by(c)
        assert ic_cabello_lhs(c) == (0.0, 0.0)

    def test_case_4_spot_row(self):
        c = coeffs(c5=0.2, c6=0.6, c8=0.2)
        assert lr_constraints(4).satisfied_by(c)
        assert np.allclose(ic_cabello_lhs(c), (0.80, 0.72), atol=1e-12)

    def test_case_15_spot_row(self):
        c = coeffs(c5=0.3, c8=0.4, c9=0.2, c10=0.1)
        assert lr_constraints(15).satisfied_by(c)
        assert np.allclose(ic_cabello_lhs(c), (0.20, 0.04), atol=1e-12)

    def test_all_cases_feasible(self):
        for cid in lr_cases():
            c = feasibility_witness(cid)
            assert c is not None
            assert lr_constraints(cid).satisfied_by(c, tol=1e-9)
            lhs1, lhs2 = ic_cabello_lhs(c)
            assert lhs1 <= 1.0 and lhs2 <= 1.0

    def test_witness_is_the_certified_ic_point(self):
        # c6 = 1/sqrt(2), c11 = 1 - 1/sqrt(2) solves every case's system
        # exactly, meets both IC conditions and makes the case's inputs
        # locally random; each call hands out a new writable array
        ic_point = max_success_under_ic().point
        for cid in lr_cases():
            system = lr_constraints(cid)
            w = feasibility_witness(cid)
            assert w.tobytes() == ic_point.tobytes(), cid
            assert np.all(system.a @ w - system.b == 0.0), cid
            assert min(1.0 - lhs for lhs in ic_cabello_lhs(w)) >= 0.0, cid
            box = cabello_box(w)
            assert all(is_locally_random(box, inp) for inp in system.inputs), cid
            again = feasibility_witness(cid)
            assert again is not w and again.flags.writeable
            again[0] = 0.5
            assert feasibility_witness(cid).tobytes() == ic_point.tobytes()

    def test_deterministic_per_seed(self):
        c1 = feasibility_witness(8)
        c2 = feasibility_witness(8)
        np.testing.assert_array_equal(c1, c2)


class TestTable2Fixture:
    def test_forty_five_rows(self):
        rows = load_table2_fixture()
        assert len(rows) == 45
        assert sorted({r.case_id for r in rows}) == list(range(1, 16))

    def test_all_rows_verify(self):
        for chk in verify_table2():
            assert chk.lhs_match, chk.row
            assert chk.constraints_ok, chk.row
            assert chk.ic_ok, chk.row

    def test_c11_row_of_every_case(self):
        for row in load_table2_fixture():
            if row.c[10] == 1.0:
                assert (row.lhs1, row.lhs2) == (0.0, 0.0)

    def test_spot_rows_exact_at_four_decimals(self):
        c5_row = coeffs(c5=0.3, c6=0.3, c10=0.3, c11=0.1)
        lhs = ic_cabello_lhs(c5_row)
        assert (round(lhs[0], 4), round(lhs[1], 4)) == (0.9, 0.9)
        c13_row = coeffs(c8=0.5, c10=0.5)
        lhs = ic_cabello_lhs(c13_row)
        assert (round(lhs[0], 4), round(lhs[1], 4)) == (0.5, 0.0)


def assert_read_only(*arrays):
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


class TestSharedConstants:
    """The 15 systems and the fixture rows are built once per process and
    handed out with read-only arrays."""

    def test_repeat_calls_return_the_same_read_only_objects(self):
        for cid in lr_cases():
            system = lr_constraints(cid)
            assert lr_constraints(cid) is system
            assert_read_only(system.a, system.b)
        rows, again = load_table2_fixture(), load_table2_fixture()
        assert rows is not again and len(rows) == len(again) == 45
        assert all(r is s for r, s in zip(rows, again))
        rows.clear()
        assert len(load_table2_fixture()) == 45
        assert_read_only(*(row.c for row in again))

    def test_arrays_equal_a_fresh_parse_bit_for_bit(self):
        for cid in lr_cases():
            system = lr_constraints(cid)
            parsed = [localrandom._relation_row(rel) for rel in system.relations]
            a = np.array([row[0] for row in parsed])
            b = np.array([row[1] for row in parsed])
            assert system.a.dtype == a.dtype and system.a.shape == a.shape
            assert system.a.tobytes() == a.tobytes(), cid
            assert system.b.dtype == b.dtype and system.b.tobytes() == b.tobytes(), cid

    def test_warm_commands_parse_and_reduce_nothing(self, monkeypatch):
        commands = [["table1"], ["table1", "--format", "csv"], ["table2", "--seed", "4"],
                    ["table2", "--format", "csv"]]
        commands += [["lr-case", str(cid)] for cid in lr_cases()]

        def run_all():
            return [(p.returncode, p.stdout, p.stderr) for p in
                    (run_cli(*argv) for argv in commands)]

        warm = run_all()

        def fail(*args):
            raise AssertionError("derived again")

        monkeypatch.setattr(localrandom, "_relation_row", fail)
        assert run_all() == warm
        assert all(rc == 0 and err == "" for rc, _, err in warm)


NON_TOLS = [-1.0, -1e-12, float("nan"), float("inf"), float("-inf")]


class TestTolValidation:
    @pytest.mark.parametrize("tol", NON_TOLS)
    def test_verify_table2_rejects_the_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite value >= 0"):
            verify_table2(tol=tol)
        with pytest.raises(ValueError, match="tol must be a finite value >= 0"):
            verify_table2([], tol=tol)

    @pytest.mark.parametrize("tol", NON_TOLS)
    def test_satisfied_by_rejects_the_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite value >= 0"):
            lr_constraints(9).satisfied_by(feasibility_witness(9), tol=tol)

    def test_zero_tol_is_accepted(self):
        assert lr_constraints(9).satisfied_by(feasibility_witness(9), tol=0.0)
        assert len(verify_table2(tol=0.0)) == 45


def table2_row(case_id, c):
    lhs1, lhs2 = ic_cabello_lhs(c)
    return Table2Row(case_id=case_id, c=c, lhs1=lhs1, lhs2=lhs2)


class TestBatchedVerify:
    """verify_table2 evaluates all residuals in one batch; every row must
    read as the per-row primitives read it."""

    @staticmethod
    def sampled_rows():
        # 14 points on each case's system, each also filed under the next
        # case, where most of them are off the system
        rng = np.random.default_rng(2027)
        rows = []
        for cid in lr_cases():
            for _ in range(14):
                c = reference.sample_case_point(cid, rng)
                rows += [table2_row(cid, c), table2_row(cid % 15 + 1, c)]
        return rows

    def test_each_row_reads_as_its_primitives(self):
        rows = load_table2_fixture() + self.sampled_rows()
        assert len(rows) == 45 + 2 * 210
        checks = verify_table2(rows)
        assert [chk.row for chk in checks] == rows
        for chk in checks:
            lhs = ic_cabello_lhs(chk.row.c)
            assert type(chk.recomputed) is tuple
            assert [x.hex() for x in chk.recomputed] == [y.hex() for y in lhs]
            assert chk.constraints_ok == lr_constraints(chk.row.case_id).satisfied_by(chk.row.c)
        oks = [chk.constraints_ok for chk in checks]
        assert all(oks[:45]) and all(oks[45::2])
        assert sum(not ok for ok in oks[46::2]) >= 150

    def test_off_system_rows_are_false(self):
        # c1 = 1 breaks every case's system; so does a fixture row filed
        # under a case whose system it misses
        rows = [table2_row(cid, coeffs(c1=1.0)) for cid in lr_cases()]
        rows += [table2_row(12, coeffs(c5=0.3, c8=0.4, c9=0.2, c10=0.1))]
        for chk in verify_table2(rows):
            assert not lr_constraints(chk.row.case_id).satisfied_by(chk.row.c)
            assert chk.constraints_ok is False
            assert chk.lhs_match and chk.ic_ok

    def test_no_rows_give_no_checks(self):
        assert verify_table2([]) == []
        assert verify_table2(iter([])) == []

    def test_rows_may_be_any_iterable(self):
        rows = load_table2_fixture()
        assert verify_table2(iter(rows)) == verify_table2(rows) == verify_table2()

    def test_unknown_case_raises(self):
        rows = load_table2_fixture()[:3] + [table2_row(99, coeffs(c11=1.0))]
        with pytest.raises(ValueError, match="case id must be 1..15, got 99"):
            verify_table2(rows)

    def test_off_simplex_row_raises_as_ic_cabello_lhs(self):
        bad = coeffs(c1=0.5, c2=0.6)
        with pytest.raises(CoefficientError) as expected:
            ic_cabello_lhs(bad)
        rows = load_table2_fixture()[:3] + [Table2Row(4, bad, 0.0, 0.0)]
        with pytest.raises(CoefficientError) as exc:
            verify_table2(rows)
        assert str(exc.value) == str(expected.value)

    def test_first_failing_row_wins(self):
        good = load_table2_fixture()[0]
        off_simplex = Table2Row(4, coeffs(c1=0.5, c2=0.6), 0.0, 0.0)
        unknown_case = table2_row(99, coeffs(c11=1.0))
        with pytest.raises(CoefficientError):
            verify_table2([good, off_simplex, unknown_case])
        with pytest.raises(ValueError, match="case id must be 1..15"):
            verify_table2([good, unknown_case, off_simplex])
        # within one row, its left-hand sides are computed before its case is read
        with pytest.raises(CoefficientError):
            verify_table2([good, Table2Row(99, off_simplex.c, 0.0, 0.0)])


class TestOncePerProcessWitness:
    def test_system_stack_is_each_system_zero_padded(self):
        a, b = localrandom._system_stack()
        assert localrandom._system_stack() is localrandom._system_stack()
        assert a.shape == (15, 8, 11) and b.shape == (15, 8)
        assert_read_only(a, b)
        for cid in lr_cases():
            system = lr_constraints(cid)
            k = len(system.b)
            assert a[cid - 1, :k].tobytes() == system.a.tobytes(), cid
            assert b[cid - 1, :k].tobytes() == system.b.tobytes(), cid
            assert not a[cid - 1, k:].any() and not b[cid - 1, k:].any(), cid

    def test_warm_witness_solves_nothing(self, monkeypatch):
        warm = {cid: feasibility_witness(cid) for cid in lr_cases()}

        def fail(*args, **kwargs):
            raise AssertionError("solved again")

        monkeypatch.setattr(localrandom, "max_success_under_ic", fail)
        for cid in lr_cases():
            w = feasibility_witness(cid)
            assert w is not warm[cid] and w.flags.writeable
            assert w.tobytes() == warm[cid].tobytes()
