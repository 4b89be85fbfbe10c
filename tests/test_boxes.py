"""Box representation, validation, correlators, vertices and CHSH."""
import copy
import json
import math
import pickle
import warnings

import numpy as np
import pytest

import reference
from nlbox import boxes, cabello
from nlbox.boxes import (
    Box,
    CoefficientError,
    CorrelatorForm,
    InfeasibleCorrelatorError,
    MalformedBoxError,
    SignalingError,
    chsh_value,
    from_correlators,
    local_vertex,
    marginal,
    mix,
    nonlocal_vertex,
    pr_box,
    to_correlators,
    uniform_box,
    validate_box,
)


class TestValidateBox:
    def test_pr_box_valid(self):
        assert validate_box(pr_box()) == []

    def test_normalization_violation(self):
        p = np.full((4, 4), 0.1)
        p[0, 0] = 1.0
        p[1:] = 0.25
        report = validate_box(Box(p))
        assert any(v.kind == "normalization" and "00" in v.location for v in report)
        assert any(abs(v.magnitude - 0.3) < 1e-12 for v in report)

    def test_signaling_violation(self):
        p = np.array(local_vertex(0, 0, 0, 0).p)
        p[boxes.ROW_OF[(0, 1)], 0] = 0.0  # erase P(00|01)
        report = validate_box(Box(p))
        assert any(
            v.kind == "no-signaling" and v.location == "party A, input 0"
            for v in report
        )

    def test_positivity_violation(self):
        p = np.full((4, 4), 0.25)
        p[0, 0] = -0.1
        p[0, 1] = 0.6
        assert any(v.kind == "positivity" for v in validate_box(Box(p)))

    def test_non_finite_rejected(self):
        p = np.full((4, 4), 0.25)
        p[2, 2] = np.nan
        with pytest.raises(MalformedBoxError):
            Box(p)

    def test_wrong_shape_rejected(self):
        with pytest.raises(MalformedBoxError):
            Box(np.full((3, 4), 0.25))

    def test_full_report_kinds_locations_order_and_magnitudes(self):
        p = np.array([
            [0.25, -0.1, 0.25, 0.25],   # XY=00: one negative entry, total 0.65
            [-0.1, 0.6, -0.1, 0.6],     # XY=01: two negative entries
            [0.6, -0.2, 0.3, 0.3],      # XY=10: one negative entry
            [0.4, 0.1, 0.4, 0.1],       # XY=11
        ])
        expected = [
            ("positivity", "P(01|00)", 0.1),
            ("normalization", "row XY=00", 0.35),
            ("positivity", "P(00|01)", 0.1),
            ("positivity", "P(10|01)", 0.1),
            ("positivity", "P(01|10)", 0.2),
            ("no-signaling", "party A, input 0", 0.35),  # P(a=0): 0.15 vs 0.5
            ("no-signaling", "party B, input 0", 0.4),   # P(b=0): 0.5 vs 0.9
            ("no-signaling", "party A, input 1", 0.1),   # P(a=0): 0.4 vs 0.5
            ("no-signaling", "party B, input 1", 1.0),   # P(b=0): -0.2 vs 0.8
        ]
        report = validate_box(Box(p))
        assert [(v.kind, v.location) for v in report] == [e[:2] for e in expected]
        for v, (_, _, magnitude) in zip(report, expected):
            assert abs(v.magnitude - magnitude) <= 1e-12


# (kind, location) of the 24 checks in report order; with the concatenation
# formula of reference.check_magnitudes, the independent reference for
# validate_box
REFERENCE_CHECKS = [
    check for xy in ("00", "01", "10", "11") for check in
    [("positivity", f"P({ab}|{xy})") for ab in ("00", "01", "10", "11")]
    + [("normalization", f"row XY={xy}")]
] + [("no-signaling", f"party {party}, input {inp}") for inp in (0, 1) for party in "AB"]


def reference_report(box, tol):
    magnitudes = reference.check_magnitudes(box.p)
    return [(*REFERENCE_CHECKS[k], float(magnitudes[k]))
            for k in np.flatnonzero(magnitudes > tol)]


def seeded_tables(seed, n):
    """Vertex mixtures, the same with noise near and far above 1e-9, and
    uniform random tables."""
    rng = np.random.default_rng(seed)
    verts = np.array([v.p for v in
                      reference.all_local_vertices() + reference.all_nonlocal_vertices()])
    tables = []
    for k in range(n):
        p = np.tensordot(rng.dirichlet(np.full(24, 0.3)), verts, 1)
        kind = k % 4
        if kind == 1:
            p = p + rng.normal(scale=1e-9, size=(4, 4)) * (rng.random((4, 4)) < 0.3)
        elif kind == 2:
            p = p + rng.normal(scale=0.05, size=(4, 4))
        elif kind == 3:
            p = rng.random((4, 4)) / 2
        tables.append(p)
    return tables


class TestDerivedCache:
    def test_reports_match_the_concatenation_formula(self):
        for p in seeded_tables(21, 400):
            box = Box(p)
            # all 24 magnitudes, the satisfied checks included, bit for bit
            assert box.check_magnitudes.tobytes() == reference.check_magnitudes(box.p).tobytes()
            for tol in (0.0, 1e-12, 1e-9, 0.1):
                got = [(v.kind, v.location, v.magnitude) for v in validate_box(box, tol)]
                want = reference_report(box, tol)
                assert got == want  # magnitudes compared exactly
                assert (box.worst_check <= tol) == (want == [])

    @staticmethod
    def near_box():
        """The PR box with P(01|00) = -1e-10 and P(10|00) = 1e-10: the
        entry and the marginals of A0 and B0 are off by 1e-10."""
        p = np.array(pr_box().p)
        p[0, 1], p[0, 2] = -1e-10, 1e-10
        return Box(p)

    @pytest.mark.parametrize("tols", [(1e-9, 1e-12), (1e-12, 1e-9)])
    def test_validation_applies_each_calls_tol(self, tols):
        box = self.near_box()
        for tol in tols:
            report = validate_box(box, tol)
            if tol == 1e-9:
                assert report == []
                boxes.require_valid(box, tol)
            else:
                assert ("positivity", "P(01|00)", 1e-10) in [
                    (v.kind, v.location, v.magnitude) for v in report]
                with pytest.raises(boxes.InvalidBoxError, match="positivity at P\\(01\\|00\\)"):
                    boxes.require_valid(box, tol)

    @pytest.mark.parametrize("tols", [(1e-9, 1e-12), (1e-12, 1e-9)])
    def test_marginal_applies_each_calls_tol(self, tols):
        box = self.near_box()
        for tol in tols:
            if tol == 1e-9:
                assert abs(marginal(box, "A", 0, tol) - 0.5) <= 1e-10
            else:
                with pytest.raises(SignalingError):
                    marginal(box, "A", 0, tol)

    @pytest.mark.parametrize("tols", [(1e-9, 1e-12), (1e-12, 1e-9)])
    def test_ic_quantities_applies_each_calls_tol(self, tols):
        from nlbox.ic import ic_quantities

        box = self.near_box()
        for tol in tols:
            if tol == 1e-9:
                assert ic_quantities(box, tol).p_i_a == 1.0
            else:
                with pytest.raises(boxes.InvalidBoxError):
                    ic_quantities(box, tol)

    def test_ic_quantities_are_built_once_per_box(self, monkeypatch):
        from nlbox import ic

        built, record = [], ic.ICQuantities

        def counting(*args):
            built.append(args)
            return record(*args)

        monkeypatch.setattr(ic, "ICQuantities", counting)
        box = self.near_box()
        q = ic.ic_quantities(box)
        for read in (ic.ic_quantities, ic.ic_ab_satisfied, ic.ic_ba_satisfied, ic.rac_simulate):
            read(box)
        assert len(built) == 1 and ic.ic_quantities(box) is q
        with pytest.raises(boxes.InvalidBoxError):  # the kept record skips no check
            ic.ic_quantities(box, 1e-12)
        assert len(built) == 1

    def test_stats_match_the_batched_reference(self):
        for p in seeded_tables(22, 40) + [pr_box().p]:
            box = Box(p)
            assert box.stats.tobytes() == reference.row_stats(box.p).tobytes()
            assert not box.stats.flags.writeable

    def test_derived_data_is_read_only(self):
        box = pr_box()
        with pytest.raises(ValueError):
            box.stats[0, 0] = 0.0
        with pytest.raises(ValueError):
            box.check_magnitudes[0] = 0.0


class TestConstructionTimeFloats:
    @staticmethod
    def read_everything(box):
        """Every reader of a box's derived data, on valid and invalid boxes."""
        from nlbox.cabello import extract_q
        from nlbox.ic import ic_ab_satisfied, ic_ba_satisfied, ic_quantities, rac_simulate
        from nlbox.localrandom import LR_INPUTS, is_locally_random

        out = [box.worst_check, box.check_magnitudes.tolist(), validate_box(box),
               extract_q(box), [box.prob(a, b, 1, 0) for a in (0, 1) for b in (0, 1)]]
        for party in "AB":
            for inp in (0, 1):
                try:
                    out.append(marginal(box, party, inp))
                except SignalingError as exc:
                    out.append(exc.values)
        for inp in LR_INPUTS:
            try:
                out.append(is_locally_random(box, inp))
            except SignalingError:
                out.append(None)
        if box.worst_check <= boxes.DEFAULT_TOL:
            boxes.require_valid(box)
            out += [ic_quantities(box), ic_ab_satisfied(box), ic_ba_satisfied(box),
                    rac_simulate(box), to_correlators(box), chsh_value(box, 1, 1)]
        else:
            with pytest.raises(boxes.InvalidBoxError):
                boxes.require_valid(box)
        return out

    def test_no_reader_computes_row_stats_again(self, monkeypatch):
        from nlbox.cabello import cabello_box
        from nlbox.quantum import canonical_scenario, quantum_box

        made = [pr_box(), cabello_box(np.full(11, 1 / 11)),
                quantum_box(canonical_scenario(0.6, 1.1, 2.0)),
                Box(np.full((4, 4), 0.5)), Box(seeded_tables(5, 4)[2])]
        before = [self.read_everything(box) for box in made]

        def fail(p):
            raise AssertionError("row_stats called")

        monkeypatch.setattr(boxes, "_row_stats", fail)
        with pytest.raises(AssertionError, match="row_stats called"):
            Box(pr_box().p)  # construction does read the patched name
        assert [self.read_everything(box) for box in made] == before

    @pytest.mark.parametrize("row", [
        [-0.0] * 4,                                 # totals +0.0, as the matmul's
        [-0.0, 0.0, -0.0, -0.0], [0.0, -0.0, -0.0, 1.0],
        [1e308, 1e308, 0.0, 0.0],                   # an infinite total
        [5e-324, 1e-310, -5e-324, 2.5e-308],        # subnormal cells
    ])
    def test_float_row_stats_match_the_matmul_bit_for_bit(self, row):
        tables = [np.full((4, 4), row[0]), np.array([row] * 4)]
        for k in range(4):
            tables.append(np.full((4, 4), 0.25))
            tables[-1][k] = row
        for p in tables:
            box = Box(p)
            with np.errstate(over="ignore"):
                stats = reference.row_stats(p)
            assert np.array(box._stats).tobytes() == stats.tobytes()
            pairs = np.array(box._pairs).reshape(2, 2, 2).transpose(1, 0, 2)
            assert pairs.tobytes() == boxes._marginals(stats).tobytes()

    def test_box_copies_the_callers_table(self):
        p = np.full((4, 4), 0.25)
        box = Box(p)
        assert p.flags.writeable and not box.p.flags.writeable
        p[0, 0] = 1.0
        assert box.p[0, 0] == box.prob(0, 0, 0, 0) == 0.25

    def test_mixtures_own_their_read_only_table(self):
        from nlbox.cabello import _VERTEX_STACK, cabello_box, hardy_box

        rng = np.random.default_rng(3)
        c, h, w = rng.dirichlet(np.ones(11)), rng.dirichlet(np.ones(6)), np.array([0.3, 0.7])
        tables = np.array([pr_box().p, uniform_box().p]).reshape(2, 16)
        for box, want in ((cabello_box(c), c @ _VERTEX_STACK),
                          (hardy_box(h), h @ _VERTEX_STACK[:6]),
                          (mix([pr_box(), uniform_box()], w), w @ tables)):
            assert box.p.base is None and not box.p.flags.writeable  # no writable alias
            assert box.p.tobytes() == want.tobytes()  # the matmul's bits

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
    def test_non_finite_or_negative_tol_is_rejected(self, tol):
        for box in (pr_box(), Box(np.full((4, 4), 0.5))):
            for call in (lambda: validate_box(box, tol), lambda: boxes.require_valid(box, tol),
                         lambda: marginal(box, "A", 0, tol)):
                with pytest.raises(ValueError, match="tol must be a finite value >= 0") as exc:
                    call()
                assert not isinstance(exc.value, boxes.BoxError)

    def test_ic_on_an_invalid_box_raises_for_any_tol(self):
        from nlbox.ic import ic_ab_satisfied, rac_simulate

        invalid = Box(np.full((4, 4), 0.5))
        with pytest.raises(ValueError, match="tol must be"):
            ic_ab_satisfied(invalid, math.nan)
        for check in (ic_ab_satisfied, rac_simulate):
            with pytest.raises(boxes.InvalidBoxError):
                check(invalid)
        assert validate_box(pr_box(), 0.0) == []

    def test_a_nan_magnitude_is_skipped(self):
        # rows 00 and 01 both start 1e308, 1e308: P(a=0|00) and P(a=0|01)
        # are inf, so A0's no-signaling magnitude is inf - inf = nan
        p = [[1e308, 1e308, 0.0, 0.0]] * 2 + [[0.25] * 4] * 2
        with np.errstate(over="ignore"):
            box = Box(p)
        magnitudes = box.check_magnitudes.tolist()
        assert math.isnan(magnitudes[20])
        assert box.worst_check == max(m for m in magnitudes if not math.isnan(m)) == math.inf
        expected = [("normalization", "row XY=00", math.inf),
                    ("normalization", "row XY=01", math.inf),
                    ("no-signaling", "party B, input 0", 1e308),
                    ("no-signaling", "party B, input 1", 1e308)]
        for tol in (0.0, boxes.DEFAULT_TOL):
            assert [(v.kind, v.location, v.magnitude)
                    for v in validate_box(box, tol)] == expected

    def test_valid_boxes_never_build_the_check_list(self, monkeypatch):
        from nlbox.cabello import cabello_box, extract_q
        from nlbox.ic import ic_ab_satisfied, ic_ba_satisfied, rac_simulate

        def fail(box):
            raise AssertionError("check list built")

        monkeypatch.setattr(Box, "_magnitudes", fail)
        for box in (pr_box(), cabello_box(np.full(11, 1 / 11)), Box(seeded_tables(5, 4)[0])):
            assert validate_box(box) == []
            boxes.require_valid(box)
            for read in (extract_q, ic_ab_satisfied, ic_ba_satisfied, rac_simulate):
                read(box)
        with pytest.raises(AssertionError, match="check list built"):
            validate_box(Box(np.full((4, 4), 0.5)))

    def test_sums_that_overflow_leave_the_box_invalid(self):
        with np.errstate(over="ignore"):
            box = Box(np.full((4, 4), 1e308))  # finite entries, infinite row sums
        assert box.worst_check == math.inf
        assert [v.kind for v in validate_box(box)] == ["normalization"] * 4
        with pytest.raises(boxes.InvalidBoxError):
            boxes.require_valid(box)


class TestCorrelators:
    def test_pr_box(self):
        corr = to_correlators(pr_box())
        assert corr.c_x == (0.0, 0.0)
        assert corr.c_y == (0.0, 0.0)
        assert corr.c_xy == ((1.0, 1.0), (1.0, -1.0))

    def test_deterministic_vertex(self):
        corr = to_correlators(local_vertex(0, 0, 0, 0))
        assert corr.c_x == (1.0, 1.0)
        assert corr.c_y == (1.0, 1.0)
        assert corr.c_xy == ((1.0, 1.0), (1.0, 1.0))

    def test_uniform_box(self):
        corr = to_correlators(uniform_box())
        assert corr.c_x == (0.0, 0.0)
        assert corr.c_y == (0.0, 0.0)
        assert corr.c_xy == ((0.0, 0.0), (0.0, 0.0))

    def test_zero_correlators_give_uniform(self):
        box = from_correlators(
            CorrelatorForm((0.0, 0.0), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
        )
        np.testing.assert_allclose(box.p, 0.25)

    def test_pr_correlators_give_pr(self):
        box = from_correlators(
            CorrelatorForm((0.0, 0.0), (0.0, 0.0), ((1.0, 1.0), (1.0, -1.0)))
        )
        np.testing.assert_allclose(box.p, pr_box().p)

    def test_infeasible_correlators(self):
        with pytest.raises(InfeasibleCorrelatorError):
            from_correlators(
                CorrelatorForm((1.0, 1.0), (1.0, 1.0), ((1.0, 1.0), (1.0, 2.0)))
            )

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
    def test_non_finite_or_negative_tol_is_rejected(self, tol):
        # unchecked, tol = nan would clip an out-of-range entry without an error
        for corr in (to_correlators(pr_box()),
                     CorrelatorForm((1.0, 1.0), (1.0, 1.0), ((1.0, 1.0), (1.0, 2.0)))):
            with pytest.raises(ValueError, match="tol must be a finite value >= 0") as exc:
                from_correlators(corr, tol)
            assert not isinstance(exc.value, InfeasibleCorrelatorError)

    def test_round_trip_on_random_mixtures(self):
        verts = reference.all_local_vertices() + reference.all_nonlocal_vertices()
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = rng.dirichlet(np.ones(len(verts)))
            box = mix(verts, w)
            rebuilt = from_correlators(to_correlators(box))
            np.testing.assert_allclose(rebuilt.p, box.p, atol=1e-12)

    def test_an_infinite_correlator_is_infeasible_without_a_warning(self):
        corr = CorrelatorForm((math.inf, 0.0), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleCorrelatorError) as exc:
                from_correlators(corr)
        assert str(exc.value) == "reconstructed entries span [-inf, inf]"

    def test_a_none_correlator_is_malformed(self):
        corr = CorrelatorForm((None, 0.0), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(MalformedBoxError):
            from_correlators(corr)

    def test_cells_match_the_matmul_by_the_inverse_map_bit_for_bit(self):
        # the matmul form: rows (1, C_A, C_B, C_AB) times the inverse map; a
        # NaN table goes to Box, which raises, and a table out of
        # [-tol, 1 + tol] is infeasible
        def by_matmul(v, tol):
            rows = np.stack([np.ones(4), np.repeat(v[:2], 2), np.tile(v[2:4], 2), v[4:]], -1)
            with np.errstate(all="ignore"):
                p = reference.from_correlator_rows(rows)
            if np.isnan(p).any():
                return MalformedBoxError, "probability table contains non-finite entries"
            if p.min() < -tol or p.max() > 1.0 + tol:
                return InfeasibleCorrelatorError, (
                    f"reconstructed entries span [{p.min()}, {p.max()}]")
            return np.clip(p, 0.0, 1.0).tobytes()

        special = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e-300, 1e308, math.inf, -math.inf,
                   math.nan]
        rng = np.random.default_rng(22)
        forms = [rng.uniform(-1.2, 1.2, 8) for _ in range(2000)]
        forms += [rng.uniform(-0.4, 0.4, 8) for _ in range(2000)]
        for v in forms[::2]:  # special values among the uniform ones
            v[rng.integers(8, size=3)] = rng.choice(special, size=3)
        forms += [rng.choice(special, size=8) for _ in range(2000)]
        feasible = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, v in enumerate(forms):
                tol = (1e-9, 0.0, 0.3)[k % 3]
                corr = CorrelatorForm(tuple(v[:2]), tuple(v[2:4]), (tuple(v[4:6]), tuple(v[6:])))
                expected = by_matmul(v, tol)
                if isinstance(expected, bytes):
                    assert from_correlators(corr, tol).p.tobytes() == expected
                    feasible += 1
                else:
                    with pytest.raises(expected[0]) as exc:
                        from_correlators(corr, tol)
                    assert str(exc.value) == expected[1]
        assert feasible > 1000, feasible


class TestVertices:
    def test_local_vertex_all_zero(self):
        box = local_vertex(0, 0, 0, 0)
        for x in (0, 1):
            for y in (0, 1):
                assert box.prob(0, 0, x, y) == 1.0

    def test_local_vertex_identity_outputs(self):
        box = local_vertex(1, 0, 1, 0)  # a = X, b = Y
        assert box.prob(1, 1, 1, 1) == 1.0
        assert box.prob(0, 0, 0, 0) == 1.0

    def test_local_vertex_all_one(self):
        box = local_vertex(0, 1, 0, 1)  # a = 1, b = 1
        for x in (0, 1):
            for y in (0, 1):
                assert box.prob(1, 1, x, y) == 1.0

    def test_sixteen_distinct_local_vertices(self):
        tables = {v.p.tobytes() for v in reference.all_local_vertices()}
        assert len(tables) == 16

    def test_pr_is_nonlocal_000(self):
        assert pr_box() == nonlocal_vertex(0, 0, 0)

    def test_nonlocal_001(self):
        box = nonlocal_vertex(0, 0, 1)  # a xor b = XY xor 1
        assert box.prob(1, 1, 1, 1) == 0.5
        assert box.prob(1, 1, 0, 1) == 0.0
        assert box.prob(1, 1, 1, 0) == 0.0
        assert box.prob(0, 0, 0, 0) == 0.0

    def test_nonlocal_110(self):
        # a xor b = XY xor X xor Y: parity 0 at XY=00, parity 1 at XY=11
        box = nonlocal_vertex(1, 1, 0)
        assert box.prob(0, 0, 0, 0) == 0.5
        assert box.prob(0, 0, 1, 1) == 0.0
        assert box.prob(0, 1, 1, 1) == 0.5

    def test_eight_distinct_nonlocal_vertices(self):
        verts = reference.all_nonlocal_vertices()
        assert len({v.p.tobytes() for v in verts}) == 8
        for v in verts:
            assert validate_box(v) == []
            counts = (v.p == 0.5).sum(axis=1)
            np.testing.assert_array_equal(counts, 2)

    def test_nonlocal_marginals_uniform(self):
        for v in reference.all_nonlocal_vertices():
            for party in "AB":
                for inp in (0, 1):
                    assert marginal(v, party, inp) == 0.5

    def test_nonlocal_exactly_one_chsh_4(self):
        for v in reference.all_nonlocal_vertices():
            hits = [
                (x, y)
                for x in (0, 1)
                for y in (0, 1)
                if abs(chsh_value(v, x, y) - 4.0) < 1e-12
            ]
            assert len(hits) == 1


class TestMix:
    def test_identity(self):
        assert mix([pr_box()], [1.0]) == pr_box()

    def test_two_vertex_mixture(self):
        box = mix([local_vertex(0, 0, 0, 0), local_vertex(0, 1, 0, 1)], [0.5, 0.5])
        for x in (0, 1):
            for y in (0, 1):
                assert box.prob(0, 0, x, y) == 0.5
                assert box.prob(1, 1, x, y) == 0.5

    def test_uniform_from_all_local_vertices(self):
        box = mix(reference.all_local_vertices(), [1 / 16] * 16)
        np.testing.assert_allclose(box.p, 0.25, atol=1e-15)

    def test_convexity_preserves_validity(self):
        verts = reference.all_local_vertices() + reference.all_nonlocal_vertices()
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.dirichlet(np.ones(len(verts)))
            assert validate_box(mix(verts, w)) == []

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            mix([pr_box(), uniform_box()], [0.7, 0.7])
        with pytest.raises(ValueError):
            mix([pr_box()], [0.5, 0.5])

    def test_a_nan_weight_is_a_non_finite_coefficient(self):
        with pytest.raises(CoefficientError) as exc:
            mix([pr_box(), uniform_box()], [math.nan, 1.0])
        assert str(exc.value) == "non-finite coefficient"

    def test_weights_are_checked_by_the_coefficient_check(self):
        assert cabello.check_coefficients is boxes.check_coefficients
        assert cabello.CoefficientError is CoefficientError
        for weights, message in (([0.7, 0.7], "coefficients sum to 1.4, not 1"),
                                 ([1.2, -0.2], "negative coefficient -0.2")):
            with pytest.raises(CoefficientError) as exc:
                mix([pr_box(), uniform_box()], weights)
            assert str(exc.value) == message

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
    def test_non_finite_or_negative_tol_is_rejected(self, tol):
        # weights (3, -2) would give an entry of -0.5 under tol = nan
        for weights in ([0.5, 0.5], [3.0, -2.0]):
            with pytest.raises(ValueError, match="tol must be a finite value >= 0"):
                mix([pr_box(), uniform_box()], weights, tol)


class TestChsh:
    def test_pr_box_hits_4(self):
        assert chsh_value(pr_box(), 1, 1) == 4.0

    def test_local_vertices_at_most_2(self):
        for v in reference.all_local_vertices():
            for x in (0, 1):
                for y in (0, 1):
                    assert chsh_value(v, x, y) <= 2.0 + 1e-12


class TestMarginal:
    def test_pr_uniform(self):
        for party in "AB":
            for inp in (0, 1):
                assert marginal(pr_box(), party, inp) == 0.5

    def test_deterministic_vertex(self):
        assert marginal(local_vertex(0, 0, 0, 0), "A", 1) == 1.0

    def test_weighted_mixture(self):
        box = mix([local_vertex(0, 0, 0, 0), local_vertex(0, 1, 0, 1)], [0.3, 0.7])
        assert abs(marginal(box, "B", 0) - 0.3) < 1e-12

    def test_signaling_ambiguity(self):
        p = np.array(local_vertex(0, 0, 0, 0).p)
        p[boxes.ROW_OF[(0, 1)]] = [0.0, 0.0, 1.0, 0.0]  # a depends on Y
        with pytest.raises(SignalingError):
            marginal(Box(p), "A", 0)

    def test_both_marginal_computations_agree(self):
        # on mixtures the marginal of each input is the same for both remote
        # inputs, to rounding
        verts = reference.all_local_vertices() + reference.all_nonlocal_vertices()
        rng = np.random.default_rng(3)
        for _ in range(1000):
            w = rng.dirichlet(np.ones(len(verts)))
            box = mix(verts, w)
            assert validate_box(box, 1e-12) == []
            for inp in (0, 1):
                pairs = {
                    "A": [box.prob(0, 0, inp, y) + box.prob(0, 1, inp, y) for y in (0, 1)],
                    "B": [box.prob(0, 0, x, inp) + box.prob(1, 0, x, inp) for x in (0, 1)],
                }
                for party, (m0, m1) in pairs.items():
                    assert abs(m0 - m1) <= 1e-12
                    assert abs(marginal(box, party, inp, tol=1e-12) - (m0 + m1) / 2) <= 1e-15

    def test_unknown_party_or_input(self):
        for party, inp in (("C", 0), ("A", 2), ("B", -1)):
            with pytest.raises(ValueError):
                marginal(pr_box(), party, inp)

    @pytest.mark.parametrize("bits", [(2, 0, 0, 0), (0, -1, 0, 0), (0, 0, 2, 1), (1, 1, 0, 3)])
    def test_prob_of_a_bit_outside_0_1_names_the_bits(self, bits):
        a, b, x, y = bits
        with pytest.raises(ValueError) as exc:
            pr_box().prob(a, b, x, y)
        assert str(exc.value) == f"unknown outcomes {a}, {b} or inputs {x}, {y}"


class TestRowMap:
    def test_both_maps_are_symmetric(self):
        # reference.row_stats and from_correlator_rows multiply by them untransposed
        for m in (reference._ROW_MAP, reference._FROM_CORRELATORS):
            assert np.array_equal(m, m.T)
        np.testing.assert_array_equal(reference.row_stats(pr_box().p),
                                      pr_box().p @ reference._ROW_MAP.T)

    def test_row_stats_of_the_pr_box(self):
        # per row XY: total, P(a=0|XY), P(b=0|XY), P(a=b|XY)
        expected = [[1.0, 0.5, 0.5, 1.0]] * 3 + [[1.0, 0.5, 0.5, 0.0]]
        np.testing.assert_array_equal(reference.row_stats(pr_box().p), expected)

    def test_correlator_rows_are_inverted(self):
        # the map acts row by row, so tables whose every row is the same
        # unit vector e_ab check the inverse on a basis
        units = np.repeat(np.eye(4)[:, None, :], 4, axis=1)  # [ab, XY, column]
        stats = reference.row_stats(units)
        rows = 2.0 * stats - stats[..., :1]  # total, C_A, C_B, C_AB
        np.testing.assert_array_equal(reference.from_correlator_rows(rows), units)


class TestHash:
    def test_equal_boxes_hash_alike(self):
        p = np.array(pr_box().p)
        p[0, 1] = -0.0
        signed_zero = Box(p)
        assert signed_zero == pr_box()
        assert hash(signed_zero) == hash(pr_box())
        assert len({pr_box(), signed_zero, nonlocal_vertex(0, 0, 0), uniform_box()}) == 2


class TestSerialization:
    def test_copies_keep_a_read_only_table(self):
        box = pr_box()
        assert box.worst_check == 0.0
        for again in (pickle.loads(pickle.dumps(box)), copy.copy(box), copy.deepcopy(box)):
            assert again == box and not again.p.flags.writeable
            assert again.worst_check == 0.0

    def test_json_round_trip(self):
        box = pr_box()
        again = Box.from_json(box.to_json())
        assert again == box
        assert json.loads(box.to_json())["p"][3] == [0.0, 0.5, 0.5, 0.0]

    def test_csv_header_and_rows(self):
        box = mix([pr_box(), local_vertex(0, 1, 1, 0)], [1 / 3, 2 / 3])
        lines = box.to_csv().strip().splitlines()
        assert lines[0] == "XY,ab,prob"
        assert len(lines) == 17
        assert lines[1].startswith("00,00,")
        for line in lines[1:]:
            xy, ab, prob = line.split(",")
            assert float(prob) == box.prob(int(ab[0]), int(ab[1]), int(xy[0]), int(xy[1]))
