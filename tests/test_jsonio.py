import json
import random

import pytest

from sliceshear import (
    CyclicGroup,
    JsonSchemaError,
    build_D,
    export_json,
    hhr_family,
    hu_kriz_seed,
    import_json,
    leibniz,
    transport,
)
from sliceshear import jsonio
from sliceshear.jsonio import differential_to_obj, monomial_to_obj, obj_to_monomial
from helpers import random_monomial


class TestRoundTrip:
    def test_family_differential(self):
        items = [hhr_family(2, 1)]
        assert import_json(export_json(items)) == items

    def test_mixed_items(self):
        items = [
            hu_kriz_seed(3),
            hu_kriz_seed(3).source,
            build_D(3, 2),
            transport(hu_kriz_seed(1), 2),
        ]
        out = import_json(export_json(items))
        assert out == items
        # provenance is not part of equality; confirm it survives explicitly
        assert out[3].provenance == "transported"

    def test_empty_list(self):
        assert export_json([]) == b"[]\n"
        assert import_json(b"[]\n") == []

    def test_random_monomials(self):
        rng = random.Random(61)
        items = [
            random_monomial(rng, CyclicGroup(rng.randint(0, 4)))
            for _ in range(100)
        ]
        assert import_json(export_json(items)) == items

    def test_bytes_deterministic(self):
        items = [hhr_family(1, 2), leibniz(hu_kriz_seed(1), hu_kriz_seed(1).source)]
        assert export_json(items) == export_json(items)


class TestSchema:
    def test_stable_field_order(self):
        obj = differential_to_obj(hhr_family(1, 1))
        assert list(obj) == ["group", "page", "source", "target", "provenance"]
        assert list(obj["source"]) == ["group", "level", "coeff", "norms", "a", "u"]

    def test_page_minimum_rejected(self):
        with pytest.raises(JsonSchemaError, match="page"):
            import_json(json.dumps([{"page": 1}]))

    def test_missing_field_path(self):
        obj = monomial_to_obj(build_D(2, 1))
        del obj["coeff"]
        with pytest.raises(JsonSchemaError, match=r"items\[0\]\.coeff"):
            import_json(json.dumps([obj]))

    def test_bad_norm_triple_path(self):
        obj = monomial_to_obj(build_D(2, 1))
        obj["norms"][0] = [1, 2]
        with pytest.raises(JsonSchemaError, match=r"norms\[0\]"):
            import_json(json.dumps([obj]))

    def test_unknown_basis_key(self):
        obj = monomial_to_obj(hu_kriz_seed(1).source)
        obj["u"]["q7"] = 1
        with pytest.raises(JsonSchemaError, match="unknown basis key"):
            import_json(json.dumps([obj]))

    def test_unicode_digit_basis_key(self):
        obj = monomial_to_obj(build_D(2, 1))
        obj["a"] = {"l\u00b2": 1}
        with pytest.raises(JsonSchemaError, match="unknown basis key"):
            import_json(json.dumps([obj]))

    def test_l0_does_not_alias_sigma(self):
        obj = monomial_to_obj(build_D(2, 1))
        obj["a"] = {"s": 1, "l0": 3}
        with pytest.raises(JsonSchemaError, match="unknown basis key"):
            import_json(json.dumps([obj]))

    def test_basis_slot_out_of_range(self):
        obj = monomial_to_obj(hu_kriz_seed(1).source)
        obj["a"] = {"l5": 1}
        with pytest.raises(JsonSchemaError, match="out of range"):
            import_json(json.dumps([obj]))

    def test_level_above_group_rejected_before_basis_table(self, monkeypatch):
        obj = monomial_to_obj(build_D(2, 1))
        obj["level"] = 300000
        built = []
        monkeypatch.setattr(jsonio, "basis_names", lambda *args: built.append(args))
        with pytest.raises(JsonSchemaError, match="level 300000 out of range for ambient group C4"):
            obj_to_monomial(obj)
        assert built == []

    def test_basis_key_past_int_digit_limit(self):
        # more digits than int() converts by default; still just out of range
        obj = monomial_to_obj(build_D(2, 1))
        obj["a"] = {"l" + "1" * 5000: 1}
        with pytest.raises(JsonSchemaError, match="out of range"):
            obj_to_monomial(obj)

    def test_top_level_must_be_list(self):
        with pytest.raises(JsonSchemaError):
            import_json(b'{"group": 1}')

    def test_not_json(self):
        with pytest.raises(JsonSchemaError):
            import_json(b"@@@")

    def test_bad_provenance(self):
        obj = differential_to_obj(hu_kriz_seed(1))
        obj["provenance"] = "dreamt"
        with pytest.raises(JsonSchemaError, match="provenance"):
            import_json(json.dumps([obj]))
