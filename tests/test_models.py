import numpy as np
import pytest
from numpy.testing import assert_allclose

from uccert import check_assumptions, pullback_metric, signature
from uccert.errors import ContractViolation
from uccert.models import (bumpy_wave_metric, carleman_section,
                           cone_surface_field, flattening_chart, get_model,
                           ik_model, negative_controls)


class TestModel:
    def test_dimensions_and_constants(self):
        m = ik_model(2)
        assert m.geometry.dim == 3
        assert m.known_constants["sign_condition_value"] == 2.0
        assert m.known_constants["m0"] == pytest.approx(np.sqrt(2.0))
        assert m.known_constants["lambda0"] == 1.0
        assert m.known_constants["margin_at_lambda_2"] == -6.0

    def test_low_dimension_rejected(self):
        with pytest.raises(ContractViolation):
            ik_model(1)

    def test_wedge_products_nonzero_at_intersection(self):
        # the two surface normals span a 2-plane along the crossing set
        m = ik_model(2)
        geo = m.geometry
        x = np.array([0.0, np.cos(0.3), np.sin(0.3)])
        g = np.stack([geo.phi_plus.grad(x), geo.phi_minus.grad(x)])
        sv = np.linalg.svd(g, compute_uv=False)
        assert sv[-1] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_cone_field_derivatives(self, rng):
        f = cone_surface_field(3, -1.0, 2.0)
        from uccert.fields import ScalarField
        bare = ScalarField(f)
        for _ in range(5):
            x = np.array([rng.normal()] + list(rng.normal(size=3) + np.array([2.0, 0, 0])))
            assert_allclose(f.grad(x), bare.grad(x), rtol=1e-6, atol=1e-8)
            assert_allclose(f.hess(x), bare.hess(x), rtol=1e-4, atol=1e-5)

    def test_get_model_names(self):
        assert get_model("ik2").name == "ik2"
        assert get_model("ik3").d == 3
        assert get_model("ctrl-b").designated_failure == "transversality"
        with pytest.raises(ContractViolation):
            get_model("nope")


class TestNegativeControls:
    def test_each_fails_exactly_its_designated_check(self):
        for ctl in negative_controls(n_surface_samples=120):
            rep = check_assumptions(ctl.geometry)
            assert rep.failed_names() == [ctl.designated_failure], ctl.name

    def test_control_margins(self):
        ctls = {c.name: c for c in negative_controls(n_surface_samples=100)}
        rep_a = check_assumptions(ctls["ctrl-a"].geometry)
        assert rep_a.checks["characteristic_minus"].values["raw_at_witness"] == pytest.approx(-3.0, abs=1e-8)
        rep_c = check_assumptions(ctls["ctrl-c"].geometry)
        assert rep_c.checks["sign_condition"].margin == pytest.approx(-2.0, abs=1e-8)

    def test_parallel_surfaces_skip_sign(self):
        ctl = [c for c in negative_controls() if c.name == "ctrl-b"][0]
        rep = check_assumptions(ctl.geometry)
        assert rep.checks["sign_condition"].status == "skipped"


class TestFlatteningChart:
    def test_base_point_maps_to_origin(self, ik2):
        chart = flattening_chart(ik2, ik2.x0)
        assert_allclose(chart.inverse(ik2.x0), np.zeros(3), atol=1e-14)
        assert_allclose(chart.forward(np.zeros(3)), ik2.x0, atol=1e-14)

    def test_pullback_corner_entries_vanish_on_patch(self, ik2):
        chart = flattening_chart(ik2, ik2.x0)
        rng = np.random.default_rng(8)
        for _ in range(20):
            y = rng.uniform(-0.15, 0.15, size=3)
            qk = pullback_metric(ik2.geometry.Q, chart, y)
            assert abs(qk[0, 0]) < 1e-8
            assert abs(qk[1, 1]) < 1e-8
            assert tuple(signature(qk)) == (2, 1, 0)

    def test_analytic_jacobian_matches_fd(self, ik2):
        from uccert.fields import Chart
        chart = flattening_chart(ik2, ik2.x0)
        fd_chart = Chart(chart._forward, chart._inverse)
        for y in ([0.0, 0.0, 0.0], [0.1, -0.05, 0.2]):
            assert_allclose(chart.jacobian(np.array(y)),
                            fd_chart.jacobian(np.array(y)), rtol=1e-6, atol=1e-8)

    def test_off_intersection_base_rejected(self, ik2):
        with pytest.raises(ContractViolation):
            flattening_chart(ik2, np.array([0.3, 1.0, 0.0]))

    def test_d3_chart(self, ik3):
        chart = flattening_chart(ik3, ik3.x0)
        y = np.array([0.05, -0.08, 0.1, -0.2])
        assert np.max(np.abs(chart.inverse(chart.forward(y)) - y)) < 1e-8
        qk = pullback_metric(ik3.geometry.Q, chart, y)
        assert abs(qk[0, 0]) < 1e-8
        assert abs(qk[1, 1]) < 1e-8


class TestVariableMetric:
    def test_signature_everywhere(self, rng):
        q = bumpy_wave_metric(2, amp=0.1)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=3)
            qx = q(x)
            assert tuple(signature(qx)) == (2, 1, 0)
            assert np.max(np.abs(qx - qx.T)) <= 1e-12 * max(1.0, np.max(np.abs(qx)))

    def test_carleman_section_fields(self):
        q, bent, box = carleman_section(lam=2.0)
        assert q.dim == 2
        p = np.array([0.1, 1.05])
        assert bent(p) == pytest.approx((1.05 - 1.0) - 2.0 * 0.01)
        assert_allclose(bent.grad(p), [-0.4, 1.0], atol=1e-12)
