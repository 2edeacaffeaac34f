"""Suite runner plumbing: config validation, registry, record shape."""

import hashlib
import json
import random

import pytest

from modtriples import Divisor, ParseError, Poly, principal_divisor, pushforward_divisor
from modtriples.divisors import _fiber_cached
from modtriples.suites import SUITES, SuiteConfig, point_pool, random_map, run_suite


class TestConfig:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ParseError):
            SuiteConfig(suites=("nope",))

    def test_bounds_validated(self):
        with pytest.raises(ParseError):
            SuiteConfig(samples=0)
        with pytest.raises(ParseError):
            SuiteConfig(degree_bound=0)
        with pytest.raises(ParseError):
            SuiteConfig(seed=-1)
        with pytest.raises(ParseError):
            SuiteConfig(seed=2**64)

    def test_all_expands_to_registry(self):
        assert SuiteConfig(suites=("all",)).resolved_suites() == tuple(SUITES)

    def test_subset_kept_in_order(self):
        cfg = SuiteConfig(suites=("separation", "key-lem"))
        assert cfg.resolved_suites() == ("separation", "key-lem")


class TestReport:
    def test_record_shape(self):
        report = run_suite(SuiteConfig(seed=5, samples=3, suites=("separation",)))
        data = report.to_json()
        assert data["schema"] == 1
        assert data["summary"]["total"] == len(data["records"]) == 3
        for record in data["records"]:
            assert set(record) == {"id", "inputs", "verdict", "counterexample"}
            assert record["verdict"] in ("pass", "fail")
            assert (record["counterexample"] is None) == (record["verdict"] == "pass")

    def test_pinned_digest(self):
        # A fixed run's report, timing dropped, must not move when the engine
        # is only made faster or smaller.  A change to what the suites check
        # or record re-pins it, with the reason given in CHANGES.md.
        data = run_suite(SuiteConfig(seed=3, samples=3, suites=("all",))).to_json()
        del data["elapsed_s"]
        assert len(data["records"]) == 78
        digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        assert digest == "538734bc4e0e0a4ba907abc57780205b3f7278f67179b38b667c5c77db19ff61"

    def test_suite_isolation(self):
        # a suite's records do not depend on which other suites run
        solo = run_suite(SuiteConfig(seed=9, samples=4, suites=("key-lem",))).records
        paired = run_suite(
            SuiteConfig(seed=9, samples=4, suites=("separation", "key-lem"))
        ).records
        tail = [r for r in paired if r["id"].startswith("key-lem")]
        assert solo == tail


class TestNoPolyArithmetic:
    """The engine runs on integer forms: with Poly arithmetic disabled, every suite
    but ``kernel`` and ``roundtrip`` (which factor or parse Polys by design) records
    the same report, and pushforwards and principal divisors over the point pool
    still come out."""

    ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "scale", "__pow__", "__call__",
                  "divmod", "monic")

    def test_engine_without_poly_arithmetic(self, monkeypatch):
        names = tuple(name for name in SUITES if name not in ("kernel", "roundtrip"))
        config = SuiteConfig(seed=4, samples=5, suites=names)
        expected = run_suite(config).records

        def forbidden(*args, **kwargs):
            raise AssertionError("Poly arithmetic in the engine")

        _fiber_cached.cache_clear()  # no fiber record survives from the run above
        for name in self.ARITHMETIC:
            monkeypatch.setattr(Poly, name, forbidden)
        with pytest.raises(AssertionError):
            Poly((1, 1)) * Poly((1, 1))
        assert run_suite(config).records == expected
        rng = random.Random(4)
        pool = point_pool()
        assert any(p.degree > 1 for p in pool)
        for _ in range(40):
            f = random_map(rng, 4, 10)
            assert principal_divisor(f).degree == 0
            d = Divisor((p, rng.randint(1, 3)) for p in pool)
            assert pushforward_divisor(f, d).degree == d.degree
