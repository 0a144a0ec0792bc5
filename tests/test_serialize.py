"""Model JSON round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbmlearn import (
    FitConfig,
    FitReport,
    GibbsModel,
    RBMConfig,
    RBMModel,
    SampleSpace,
    TransactionDataset,
    dumps_model,
    fit,
    fit_full_bm,
    fit_rbm_pcd1,
    fit_tbm,
    load_model,
    model_from_dict,
    save_model,
)
from tbmlearn.baselines import FullCube

from oracles import model_to_dict


class TestGibbsRoundTrip:
    def test_probabilities_survive(self, worked_dataset, tmp_path):
        model, report = fit(worked_dataset, [(1,), (2,)], FitConfig(tol=1e-9))
        path = tmp_path / "model.json"
        save_model(path, model, report, meta={"sigma": 0.45, "k": 2})
        loaded, loaded_report, meta = load_model(path)
        assert loaded.space.outcomes == model.space.outcomes
        assert loaded.domain == model.domain
        np.testing.assert_allclose(loaded.log_probs, model.log_probs, atol=1e-12)
        assert loaded_report == report
        assert meta["sigma"] == 0.45

    def test_face_model_with_a_pattern_that_is_no_outcome(self, tmp_path):
        # Item 3 occurs only with item 0, so the face drops the outcomes (3,)
        # and (1, 3); the pattern (1, 3) keeps its parameter and lies in (0, 1, 3).
        entries = {(): 2, (0,): 3, (1,): 4, (0, 1): 5, (0, 3): 6, (0, 1, 3): 7}
        d = TransactionDataset(entries=entries, n_variables=4)
        model, report = fit(d, [(0,), (1,), (3,), (0, 1), (0, 3), (1, 3)], FitConfig(tol=1e-9))
        assert report.removed_parameters == ((3,),)
        assert (1, 3) in model.domain and (1, 3) not in model.space
        path = tmp_path / "face.json"
        save_model(path, model, report)
        loaded, loaded_report, _ = load_model(path)
        assert loaded.space.outcomes == model.space.outcomes
        assert loaded.domain == model.domain
        np.testing.assert_allclose(loaded.log_probs, model.log_probs, atol=1e-12)
        assert loaded_report == report

    @pytest.mark.parametrize("edit", ["reversed", "repeated"])
    def test_space_out_of_order_or_repeated_loads_canonical(self, worked_dataset, edit):
        # tbmlearn writes the space in canonical order, which loads without a
        # sort; any other order, or a repeated outcome, loads as the canonical set.
        model, report = fit(worked_dataset, [(1,), (2,)], FitConfig(tol=1e-9))
        obj = json.loads(dumps_model(model, report))
        space = obj["sample_space"]
        obj["sample_space"] = space[::-1] if edit == "reversed" else space + [space[2], space[0]]
        loaded, _, _ = model_from_dict(obj)
        assert loaded.space.outcomes == model.space.outcomes
        assert loaded.domain == model.domain
        np.testing.assert_array_equal(loaded.log_probs, model.log_probs)

    def test_dumps_deterministic(self, worked_dataset):
        model, report = fit(worked_dataset, [(1,), (2,)], None)
        assert dumps_model(model, report) == dumps_model(model, report)


class TestBmRoundTrip:
    def test_log_probs_rebuilt(self, worked_dataset01, tmp_path):
        model, report = fit_full_bm(worked_dataset01, [(0,), (1,)], FitConfig(tol=1e-9))
        path = tmp_path / "bm.json"
        save_model(path, model, report)
        loaded, _, _ = load_model(path)
        assert loaded.n_variables == 2
        np.testing.assert_allclose(loaded.log_probs, model.log_probs, atol=1e-12)
        assert loaded.log_partition == pytest.approx(model.log_partition, abs=1e-12)


class TestRbmRoundTrip:
    def test_arrays_exact(self, worked_dataset01, tmp_path):
        model = fit_rbm_pcd1(worked_dataset01, 2, RBMConfig(n_updates=30, seed=3))
        path = tmp_path / "rbm.json"
        save_model(path, model)
        loaded, _, _ = load_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.visible_bias, model.visible_bias)
        np.testing.assert_array_equal(loaded.hidden_bias, model.hidden_bias)


class TestSchemaGuards:
    def test_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            model_from_dict({"schema": 99, "kind": "tbm"})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            model_from_dict({"schema": 1, "kind": "dbm"})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sample_space", None, "lacks sample_space"),
            ("fit_report", {"converged": True}, "fit_report"),
            ("theta", [0.5], "theta has 1 values for 2 patterns"),
            ("theta", [0.5, float("nan")], "finite"),
            ("domain", [[1], [7]], r"\(7,\) lies in no outcome"),
            ("theta", {"a": 0.5, "b": 0.1}, "theta must hold numbers only"),
            ("fit_report", [1, 2], "fit_report must be a JSON object, not list"),
            ("kind", ["tbm"], r"unknown model kind \['tbm'\]"),
            ("sample_space", [], "the sample space has no outcome"),
        ],
    )
    def test_malformed_tbm_rejected(self, worked_dataset, key, value, message):
        model, report = fit(worked_dataset, [(1,), (2,)], None)
        obj = json.loads(dumps_model(model, report))
        if value is None:
            del obj[key]
        else:
            obj[key] = value
        with pytest.raises(ValueError, match=message):
            model_from_dict(obj)

    def test_malformed_bm_rejected(self, worked_dataset01):
        model, report = fit_full_bm(worked_dataset01, [(0,), (1,)], None)
        obj = json.loads(dumps_model(model, report))
        with pytest.raises(ValueError, match="lacks n_variables"):
            model_from_dict({k: v for k, v in obj.items() if k != "n_variables"})
        obj["theta"] = obj["theta"][:1]
        with pytest.raises(ValueError, match="theta has 1 values for 2 patterns"):
            model_from_dict(obj)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("domain", [[0], [9]], r"\(9,\) has an item outside 0..1"),
            ("domain", [[0], [-1]], r"\(-1,\) has an item outside 0..1"),
            ("domain", [[0], [0.5]], r"\(0.5,\) has an item outside 0..1"),
            ("n_variables", 26, "n_variables must be an integer in 0..25, got 26"),
            ("n_variables", -1, "got -1"),
            ("n_variables", "2", "got '2'"),
        ],
    )
    def test_bm_bounds_rejected(self, worked_dataset01, key, value, message):
        model, report = fit_full_bm(worked_dataset01, [(0,), (1,)], None)
        obj = json.loads(dumps_model(model, report))
        obj[key] = value
        with pytest.raises(ValueError, match=message):
            model_from_dict(obj)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("visible_bias", 0, "visible_bias and hidden_bias must be lists of numbers"),
            ("hidden_bias", [[0.5]], "visible_bias and hidden_bias must be lists of numbers"),
            ("weights", [1.0, 2.0], r"weights must be 2 x 1, got shape \(2,\)"),
            ("weights", [[1.0, 2.0]], r"weights must be 2 x 1, got shape \(1, 2\)"),
            ("weights", [], r"weights must be 2 x 1, got shape \(0, 1\)"),
            ("weights", [[0.5], [float("nan")]], "rbm values must be finite"),
            ("visible_bias", [0.5, float("inf")], "rbm values must be finite"),
            ("weights", [[0.5], ["x"]], "weights must hold numbers only"),
        ],
    )
    def test_malformed_rbm_rejected(self, worked_dataset01, key, value, message):
        model = fit_rbm_pcd1(worked_dataset01, 1, RBMConfig(n_updates=5, seed=0))
        obj = json.loads(dumps_model(model))
        obj[key] = value
        with pytest.raises(ValueError, match=message):
            model_from_dict(obj)

    def test_rbm_without_visible_units_round_trips(self):
        data = TransactionDataset(entries={(): 5}, n_variables=0)
        model = fit_rbm_pcd1(data, 2, RBMConfig(n_updates=5, seed=0))
        loaded, _, _ = model_from_dict(json.loads(dumps_model(model)))
        assert loaded.weights.shape == (0, 2)
        np.testing.assert_array_equal(loaded.hidden_bias, model.hidden_bias)

    @pytest.mark.parametrize(
        "kind, key, value, message",
        [
            ("bm", "domain", [[0], [0, 0]], r"domain pattern \(0, 0\) is not strictly"),
            ("tbm", "domain", [[1], [2, 1]], r"domain pattern \(2, 1\) is not strictly"),
            (
                "tbm",
                "sample_space",
                [[], [1], [2], [1, 1]],
                r"sample_space pattern \(1, 1\) is not strictly",
            ),
            ("tbm", "sample_space", [[], [1], [2], [-1]], r"\(-1,\) is not strictly"),
            ("bm", "domain", [5, [1]], "domain must be a list of item lists"),
            ("tbm", "sample_space", [[], 5, [2], [1, 2]], "sample_space must be a list of"),
            ("tbm", "domain", 5, "domain must be a list of item lists"),
            ("tbm", "sample_space", [[], [True], [2], [1, 2]], r"\(True,\) is not strictly"),
            ("tbm", "sample_space", [[], [1.0], [2], [1, 2]], r"\(1.0,\) is not strictly"),
            ("tbm", "domain", [[1], [2, True]], r"domain pattern \(2, True\) is not strictly"),
        ],
    )
    def test_non_canonical_pattern_rejected(
        self, worked_dataset, worked_dataset01, kind, key, value, message
    ):
        if kind == "bm":
            model, report = fit_full_bm(worked_dataset01, [(0,), (1,)], None)
        else:
            model, report = fit(worked_dataset, [(1,), (2,)], None)
        obj = json.loads(dumps_model(model, report))
        obj[key] = value
        with pytest.raises(ValueError, match=message):
            model_from_dict(obj)

    @pytest.mark.parametrize("obj", [[], "tbm", 1, None])
    def test_not_an_object(self, obj):
        with pytest.raises(ValueError, match="must be a JSON object"):
            model_from_dict(obj)

    def test_json_is_valid(self, worked_dataset):
        model, report = fit(worked_dataset, [(1,), (2,)], None)
        obj = json.loads(dumps_model(model, report))
        assert obj["schema"] == 1
        assert obj["kind"] == "tbm"
        assert obj["fit_report"]["converged"] is True


# Identifiers from small ones up to past the int64 range.
_ids = st.one_of(st.integers(0, 6), st.integers(2**63 - 2, 2**63 + 2))
_patterns = st.lists(_ids, max_size=4, unique=True).map(lambda p: tuple(sorted(p)))
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_meta = st.dictionaries(
    st.text(max_size=4),
    st.one_of(st.text(alphabet=st.sampled_from('a"\\\n\té€😀/'), max_size=6),
              st.integers(-(2**70), 2**70), st.floats(), st.booleans(), st.none(),
              st.lists(st.integers(0, 9), max_size=3)),
    max_size=4,
)
_reports = st.one_of(
    st.none(),
    st.builds(
        FitReport,
        iterations=st.integers(0, 10**6),
        final_gap=st.one_of(st.floats(), st.sampled_from([np.inf, np.nan])),
        removed_parameters=st.lists(_patterns, max_size=3).map(tuple),
        converged=st.booleans(),
        domain_emptied=st.booleans(),
        evaluations=st.integers(0, 10**12),
    ),
)


@st.composite
def _models(draw):
    kind = draw(st.sampled_from(["tbm", "bm", "rbm"]))
    if kind == "tbm":
        # The space may hold bottom, () written as [], and the domain may be empty.
        outcomes = draw(st.lists(_patterns, min_size=1, max_size=8, unique=True))
        domain = draw(st.lists(st.sampled_from(outcomes), max_size=4, unique=True))
        domain = [p for p in domain if p]
        theta = draw(st.lists(_floats.map(lambda v: v % 30), min_size=len(domain),
                              max_size=len(domain)))
        return GibbsModel(SampleSpace.from_patterns(outcomes), domain, theta)
    if kind == "bm":
        n = draw(st.integers(0, 4))
        domain = draw(st.lists(
            st.lists(st.integers(0, max(n - 1, 0)), min_size=1, max_size=n, unique=True)
            .map(lambda p: tuple(sorted(p))), max_size=3, unique=True)) if n else []
        theta = np.array(draw(st.lists(_floats.map(lambda v: v % 30), min_size=len(domain),
                                       max_size=len(domain))))
        return FullCube(n, domain).model(theta)
    # An rbm may have no visible or no hidden units.
    n_visible, n_hidden = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    values = st.lists(_floats, min_size=n_visible * n_hidden + n_visible + n_hidden,
                      max_size=n_visible * n_hidden + n_visible + n_hidden)
    flat = np.array(draw(values), dtype=np.float64)
    return RBMModel(flat[:n_visible], flat[n_visible:n_visible + n_hidden],
                    flat[n_visible + n_hidden:].reshape(n_visible, n_hidden))


class TestWriterLayout:
    @settings(max_examples=300, deadline=None)
    @given(model=_models(), report=_reports, meta=st.one_of(st.none(), _meta))
    def test_dumps_is_the_json_layout_of_the_dict(self, model, report, meta):
        want = json.dumps(model_to_dict(model, report, meta), indent=2, sort_keys=True) + "\n"
        assert dumps_model(model, report, meta) == want

    def test_fitted_model_written_without_the_tuple_view(self, worked_dataset):
        model, report, _ = fit_tbm(worked_dataset, 0.3, 2)
        model_to_dict(model, report)
        dumps_model(model, report)
        assert "outcomes" not in model.space.__dict__ and "index" not in model.space.__dict__
