from fractions import Fraction

import pytest

from eatsim import valuation_of
from eatsim.instances import (
    GeneratorError,
    GeneratorSpec,
    default_tightness_k,
    generate,
    tightness_bound,
)
from eatsim.lotteries import opt
from eatsim.model import Proportional, instance_defects

F = Fraction

VALID_SPECS = [
    GeneratorSpec("example1"),
    GeneratorSpec("example2"),
    GeneratorSpec("sqrt-n-lb", {"n": 16, "eps": "1/4096"}),
    GeneratorSpec("sqrt-n-lb", {"n": 9}),
    GeneratorSpec("log-m-lb", {"k": 8, "q": 4}),
    GeneratorSpec("log-m-lb", {"k": 1, "q": 1}),
    GeneratorSpec("stability-lb", {"n": 16}),
    GeneratorSpec("rp-lb", {"n": 4, "eps": "1/100"}),
    GeneratorSpec("ps-beats-cps", {"n": 16}),
    GeneratorSpec("cps-beats-ps", {"n": 16}),
    GeneratorSpec("tightness", {"x": 3}),
    GeneratorSpec("counterexample-safety", {"n": 4, "eps": "1/100"}),
    GeneratorSpec("random", {"n": 5, "m": 7}, seed=3),
]


@pytest.mark.parametrize("spec", VALID_SPECS, ids=lambda s: s.name)
def test_every_generated_instance_is_valid(spec):
    generated = generate(spec)
    inst = generated.instance
    assert instance_defects(inst.n, inst.m, inst.valuations) == []
    if generated.bad_profile is not None:
        assert len(generated.bad_profile) == generated.instance.n


@pytest.mark.parametrize("spec", VALID_SPECS, ids=lambda s: s.name)
def test_generation_is_deterministic(spec):
    assert generate(spec) == generate(spec)


class TestDomains:
    @pytest.mark.parametrize("spec", [
        GeneratorSpec("sqrt-n-lb", {"n": 10}),
        GeneratorSpec("sqrt-n-lb", {"n": 16, "eps": "1/8"}),
        GeneratorSpec("sqrt-n-lb", {"n": 16, "eps": "0"}),
        GeneratorSpec("log-m-lb", {"k": 0, "q": 4}),
        GeneratorSpec("log-m-lb", {"k": 4}),
        GeneratorSpec("stability-lb", {"n": 12}),
        GeneratorSpec("rp-lb", {"n": 1}),
        GeneratorSpec("ps-beats-cps", {"n": 2}),
        GeneratorSpec("cps-beats-ps", {"n": 7}),
        GeneratorSpec("tightness", {"x": 1}),
        GeneratorSpec("counterexample-safety", {"n": 4, "eps": "1/2"}),
        GeneratorSpec("random", {"n": 0, "m": 3}),
        GeneratorSpec("random", {"n": 2, "m": 2, "weight_max": 0}),
        GeneratorSpec("no-such-generator"),
    ], ids=lambda s: f"{s.name}:{dict(s.params)}")
    def test_domain_violations_raise(self, spec):
        with pytest.raises(GeneratorError):
            generate(spec)

    # the square constructions share one check of n: a square n >= 4,
    # tested before math.isqrt sees a negative n
    @pytest.mark.parametrize("name", ["sqrt-n-lb", "stability-lb", "ps-beats-cps",
                                      "cps-beats-ps"])
    @pytest.mark.parametrize("n, message", [
        (-4, "needs n >= 4"), (-1, "needs n >= 4"), (0, "needs n >= 4"), (1, "needs n >= 4"),
        (2, "n = 2 must be a perfect square"), (5, "n = 5 must be a perfect square"),
    ])
    def test_square_generators_check_n_once(self, name, n, message):
        with pytest.raises(GeneratorError) as exc:
            generate(GeneratorSpec(name, {"n": n}))
        assert str(exc.value) == message

    # a float would enter as its binary value (0.01 is 5764607523034235/2**59)
    # or be truncated (2.7 agents would be 2)
    @pytest.mark.parametrize("spec", [
        GeneratorSpec("sqrt-n-lb", {"n": 4, "eps": 0.01}),
        GeneratorSpec("rp-lb", {"n": 3, "eps": 0.25}),
        GeneratorSpec("random", {"n": 2.7, "m": 3}),
        GeneratorSpec("random", {"n": 2, "m": 3.0}),
    ], ids=lambda s: f"{s.name}:{dict(s.params)}")
    def test_float_parameters_are_refused(self, spec):
        with pytest.raises(GeneratorError) as exc:
            generate(spec)
        assert str(exc.value) == "floats are not exact; pass Fraction, int, or a rational string"


class TestNamedConstructions:
    def test_example1_verbatim(self):
        inst = generate(GeneratorSpec("example1")).instance
        assert inst.valuations[0] == valuation_of(["3/5", "3/10", "1/10"])
        assert inst.valuations[1] == valuation_of(["1/10", "7/10", "1/5"])
        assert inst.valuations[2] == valuation_of(["1/5", "1/2", "3/10"])

    def test_example2_verbatim(self):
        inst = generate(GeneratorSpec("example2")).instance
        assert inst.valuations[0] == valuation_of(["2/3", "1/3"])
        assert inst.valuations[1] == valuation_of(["1/3", "2/3"])

    def test_log_m_shape_and_opt(self):
        gen = generate(GeneratorSpec("log-m-lb", {"k": 8, "q": 4}))
        inst = gen.instance
        assert (inst.n, inst.m) == (12, 31)
        # the k chasers are single-minded on item 1
        for i in range(8):
            assert inst.valuations[i][0] == 1
        # dyadic agent z holds 2**z items at 1/2**z
        for z in range(1, 5):
            row = inst.valuations[7 + z]
            support = row.support()
            assert len(support) == 2 ** z
            assert all(row[j] == F(1, 2 ** z) for j in support)
        assert opt(inst)[0] == 5 == gen.notes["opt"]
        assert gen.bad_profile == tuple(Proportional(v) for v in inst.valuations)

    def test_sqrt_n_structure(self):
        gen = generate(GeneratorSpec("sqrt-n-lb", {"n": 16, "eps": "1/4096"}))
        inst = gen.instance
        assert (inst.n, inst.m) == (16, 16)
        # one designated specialist per block of four
        specialists = [i for i in range(16) if len(inst.valuations[i].support()) == 1]
        assert specialists == [0, 4, 8, 12]
        # the reported (bad) profile is near-uniform with the block tilt
        report = gen.bad_profile[0].report
        assert report[0] == F(1, 16) + F(1, 4096)
        assert report[5] == F(1, 16) - F(1, 4096) / 15

    def test_stability_structure(self):
        inst = generate(GeneratorSpec("stability-lb", {"n": 16})).instance
        assert inst.valuations[0][0] == 1
        assert inst.valuations[5][0] == F(1, 4)
        assert inst.valuations[5][10] == 0

    def test_rp_lb_structure(self):
        inst = generate(GeneratorSpec("rp-lb", {"n": 4, "eps": "1/100"})).instance
        assert (inst.n, inst.m) == (4, 16)
        assert inst.valuations[2][2] == F(99, 100)
        assert inst.valuations[2][0] == F(1, 300)
        assert inst.valuations[2][7] == 0

    def test_separation_instances(self):
        ex3 = generate(GeneratorSpec("cps-beats-ps", {"n": 16})).instance
        assert ex3.valuations[0].support() == (0,)
        assert ex3.valuations[15][0] > ex3.valuations[15][15]
        ex4 = generate(GeneratorSpec("ps-beats-cps", {"n": 16})).instance
        assert ex4.valuations[3][3] == F(1, 4)
        assert ex4.valuations[3][0] == F(3, 4) / 15

    def test_counterexample_safety_rows(self):
        inst = generate(GeneratorSpec("counterexample-safety",
                                      {"n": 4, "eps": "1/100"})).instance
        assert inst.valuations[0].values == (F(97, 100), F(1, 100), F(1, 100), F(1, 100))
        assert inst.valuations[1].support() == (0,)

    def test_tightness_layout(self):
        gen = generate(GeneratorSpec("tightness", {"x": 3}))
        inst = gen.instance
        k = gen.notes["k"]
        assert inst.n == 3 * k
        assert inst.m == 7 * k
        assert gen.notes["bound"] == F(2, 3)
        supports = [len(v.support()) for v in inst.valuations]
        assert supports == [1] * k + [2] * k + [4] * k

    def test_random_seed_behaviour(self):
        a = generate(GeneratorSpec("random", {"n": 4, "m": 4}, seed=1))
        b = generate(GeneratorSpec("random", {"n": 4, "m": 4}, seed=1))
        c = generate(GeneratorSpec("random", {"n": 4, "m": 4}, seed=2))
        assert a == b
        assert a.instance != c.instance


class TestTightnessBound:
    @pytest.mark.parametrize("x", range(2, 9))
    def test_bound_is_exactly_two_over_x(self, x):
        assert tightness_bound(x) == F(2, x)

    def test_strictly_decreasing(self):
        values = [tightness_bound(x) for x in range(2, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_needs_two_groups(self):
        with pytest.raises(GeneratorError, match="needs x >= 2"):
            tightness_bound(1)

    def test_oversized_layout_rejected_before_any_row(self):
        with pytest.raises(GeneratorError, match="over the bound"):
            generate(GeneratorSpec("tightness", {"x": 40}))

    def test_default_k_is_ceiling(self):
        assert default_tightness_k(2) == 1   # ceil(3/4)
        assert default_tightness_k(3) == 1   # ceil(7/9)
        assert default_tightness_k(5) == 2   # ceil(31/25)
        assert default_tightness_k(8) == 4   # ceil(255/64)
