import hashlib
from fractions import Fraction

import pytest

from eatsim import valuation_of
from eatsim.instances import (
    _GENERATORS,
    PARAMETERS,
    GeneratorError,
    GeneratorSpec,
    default_tightness_k,
    generate,
    tightness_bound,
)
from eatsim.lotteries import opt
from eatsim.model import Proportional, instance_defects
from eatsim.strategies import single_minded
from helpers import assert_exports_render_row_by_row

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


# sha256 of repr(generate(spec)), which holds the instance, the bad profile and
# the notes: VALID_SPECS, then the specs perfbench's workloads build, then
# optional parameters that no other spec sets
PINNED_SPECS = VALID_SPECS + [
    GeneratorSpec("log-m-lb", {"k": 8, "q": 2}),
    GeneratorSpec("log-m-lb", {"k": 2, "q": 2}),
    GeneratorSpec("sqrt-n-lb", {"n": 64}, 0),
    GeneratorSpec("rp-lb", {"n": 7}, 0),
    GeneratorSpec("random", {"n": 7, "m": 14}, 0),
    GeneratorSpec("sqrt-n-lb", {"n": 4, "eps": "1/64"}, 0),
    GeneratorSpec("cps-beats-ps", {"n": 4}, 0),
    GeneratorSpec("rp-lb", {"n": 3}, 0),
    GeneratorSpec("random", {"n": 3, "m": 5}, 0),
    GeneratorSpec("tightness", {"x": 4, "k": 2}),
    GeneratorSpec("random", {"n": 3, "m": 4, "weight_max": 5}, seed=7),
    GeneratorSpec("cps-beats-ps", {"n": 9, "eps": "1/200"}),
    GeneratorSpec("counterexample-safety", {"n": 3}),
]
GENERATED_DIGESTS = [
    "9a3f3c6086a85cbfb72424306fe62fdd077bb1f8d3a9b02dae3b0c9c0dbca581",
    "c72035f441f28a1cf95d4430047fc31f31c5e827588a073535912d0073f2f4bc",
    "f2f2ef6227724f978d76241e2b891e941b41af94c97517ebf81066a4648d1970",
    "1dd3e819bcadaedbd7fafa638dbe35b524d45772f4da4b3dbf0a32331ebc9363",
    "67c4947afb177ac289fd793a5cfa1b6b1e00b6050f68d7da90fafab9e7a006e0",
    "672601c701e8d702ed3a04ed8a9b012fd5cd6eb25d04e8a271820fe629d5e73d",
    "d8566ff5a5a46b0bed1859fe07f16b80d959eca4deb04a393889a4bcb75be671",
    "cd831e9836eff6006173dad97780df178b03c9dd7089342ae698cb846eba94cd",
    "f3c0077a9c89859f01a0264f6702bd39fda488576d5fc138f39821349368b43c",
    "99d000af55a63ef885bacb5da03fb3aa182bf384f44b60e399780f1cd8928b8d",
    "3db045d6402d3bf8ede5b12d2de69b07d418a58b0f2086c9c7a63caa0078fe8d",
    "9ace29a037e6c4997264e3e5c2b5eb59de13488cdceeaac95035ea33eb0b0bf4",
    "bc8547101b14364949b454d82d604e207f7bd8b51dc6697d2193e1cf87bc3674",
    "6de3771d41e49dd680a365a493bcd0964985310c1daf1c7e37be3f7b6fcba5ac",
    "256b22e3f93f57a176f77cfc5bf652ddb6256a51e084651157d48b559faa77cb",
    "ba25d4eb773cf9a0e544499259ed4656cfcd35dd5dcf8e9bd695881d0c83512a",
    "bdd0f35ed644d1a165344f868374a287d00e510594d8b5771ff61d5ac2a28a15",
    "95ce0bc0b915de56d5ebeebf846b0688f2216a540b5a6f4eb1cc5c69d58bb68f",
    "8e4bad1ea2c588db3c4031ddf4a6d5c63c7eb7c5b06ee4e515d54896c4787e25",
    "138f2ba4fb6fa56f4ac85b5abb072487a2c3b04615243d14ba6f4692011cc211",
    "e73bb7115e64b97e77c8d60b12920348c6b192d7b9084c2d539103d2a44a5866",
    "c96b785bc210b5c78fa02ab5dc432bb2b8b67f1fb240781d27f89be086616a8c",
    "c3b7ef1712f8aef67ca854e732e38976f8309d640798751da41908949ae6e060",
    "16fe2e0a3e9a6cefd302116c51fd71d5fa02cf85d449bafec3e7995e2fda00b8",
    "b0c86c955856df0d4aa105e0c4892f97afdf7ef9e98457d560399a18cf0b0855",
    "de8b869e928c8b23da4263ecf61e75b10d8e97335b46e1ee9ec6fbc4ec35b7ea",
]


@pytest.mark.parametrize("spec, digest", zip(PINNED_SPECS, GENERATED_DIGESTS),
                         ids=lambda x: f"{x.name}:{dict(x.params)}"
                         if isinstance(x, GeneratorSpec) else "")
def test_generated_bytes_are_pinned(spec, digest):
    assert hashlib.sha256(repr(generate(spec)).encode()).hexdigest() == digest


def _valuations(generated):
    """Every Valuation of the instance and of the bad profile's reports."""
    return list(generated.instance.valuations) + [
        s.report for s in generated.bad_profile or ()]


# the number of distinct rows of each construction with repeated rows: root
# block reports plus root single-minded rows, k equal chasers plus q blocks,
# root specialists plus one crowd row, a hedger plus one rival row
SHARED_ROWS = [
    (GeneratorSpec("sqrt-n-lb", {"n": 16}), 8),
    (GeneratorSpec("sqrt-n-lb", {"n": 64}), 16),
    (GeneratorSpec("log-m-lb", {"k": 8, "q": 2}), 3),
    (GeneratorSpec("stability-lb", {"n": 16}), 5),
    (GeneratorSpec("cps-beats-ps", {"n": 16}), 5),
    (GeneratorSpec("counterexample-safety", {"n": 5}), 2),
]


@pytest.mark.parametrize("spec, distinct", SHARED_ROWS,
                         ids=lambda x: f"{x.name}:{dict(x.params)}"
                         if isinstance(x, GeneratorSpec) else str(x))
def test_each_distinct_row_is_one_valuation(spec, distinct):
    valuations = _valuations(generate(spec))
    assert len(set(valuations)) == distinct
    assert len({id(v) for v in valuations}) == distinct


@pytest.mark.parametrize("spec", PINNED_SPECS, ids=lambda s: f"{s.name}:{dict(s.params)}")
def test_no_generator_builds_a_row_twice(spec):
    valuations = _valuations(generate(spec))
    assert len({id(v) for v in valuations}) == len(set(valuations))


@pytest.mark.parametrize("spec", PINNED_SPECS, ids=lambda s: f"{s.name}:{dict(s.params)}")
def test_exports_render_every_generator_row_by_row(spec):
    generated = generate(spec)
    profile = generated.bad_profile or generated.instance.truthful_profile()
    assert_exports_render_row_by_row(generated.instance, profile)


@pytest.mark.parametrize("spec, row, item", [
    (GeneratorSpec("sqrt-n-lb", {"n": 9}), 0, 0),
    (GeneratorSpec("log-m-lb", {"k": 2, "q": 2}), 0, 0),
    (GeneratorSpec("stability-lb", {"n": 16}), 3, 3),
    (GeneratorSpec("cps-beats-ps", {"n": 16}), 1, 1),
    (GeneratorSpec("counterexample-safety", {"n": 4}), 1, 0),
], ids=lambda x: x.name if isinstance(x, GeneratorSpec) else str(x))
def test_single_minded_rows_are_the_family_members(spec, row, item):
    # one builder of the single-minded row: the generator's row is the
    # cached report the single-minded family sweeps
    instance = generate(spec).instance
    assert instance.valuations[row] is single_minded(item, instance.m).report


def test_none_means_absent():
    assert generate(GeneratorSpec("sqrt-n-lb", {"n": 9, "eps": None, "m": None})) == \
        generate(GeneratorSpec("sqrt-n-lb", {"n": 9}))
    assert generate(GeneratorSpec("random", {"n": 2, "m": 3, "weight_max": None})) == \
        generate(GeneratorSpec("random", {"n": 2, "m": 3, "weight_max": 20}))


# the first valid spec of each generator, which the refusal tests extend
FIRST_VALID = {spec.name: spec for spec in reversed(VALID_SPECS)}


def test_the_table_draws_on_every_parameter_and_spec():
    taken = {key for _, required, optional in _GENERATORS.values()
             for key in required + optional}
    assert taken == set(PARAMETERS)
    assert set(FIRST_VALID) == set(_GENERATORS)


def _unknown_keys():
    for name, (_, required, optional) in _GENERATORS.items():
        spec = FIRST_VALID[name]
        for key in PARAMETERS + ("seed", "epsilon", "weight-max"):
            if key not in required + optional:
                yield GeneratorSpec(name, dict(spec.params, **{key: 2}), spec.seed)


class TestBinding:
    # an unknown key used to be dropped: sqrt-n-lb built its n = 4 instance
    # beside m = 3, and random built seed 0 beside {"seed": 5}
    @pytest.mark.parametrize("spec", list(_unknown_keys()),
                             ids=lambda s: f"{s.name}:{list(s.params)[-1]}")
    def test_every_key_outside_the_parameters_is_refused(self, spec):
        key = list(spec.params)[-1]
        with pytest.raises(GeneratorError, match=f"takes no parameter '{key}'"):
            generate(spec)

    @pytest.mark.parametrize("spec, message", [
        (GeneratorSpec("sqrt-n-lb", {"n": 4, "m": 3}),
         "sqrt-n-lb takes no parameter 'm'; its parameters: n, eps"),
        (GeneratorSpec("example1", {"n": 3}),
         "example1 takes no parameter 'n'; its parameters: none"),
        (GeneratorSpec("random", {"n": 2, "m": 2, "seed": 5}),
         "random takes no parameter 'seed'; its parameters: n, m, weight_max; "
         "the seed is GeneratorSpec.seed"),
        # the key is checked before its value or a missing parameter
        (GeneratorSpec("log-m-lb", {"k": 0.5, "n": 3}),
         "log-m-lb takes no parameter 'n'; its parameters: k, q"),
    ], ids=lambda x: x.name if isinstance(x, GeneratorSpec) else "")
    def test_unknown_key_message(self, spec, message):
        with pytest.raises(GeneratorError) as exc:
            generate(spec)
        assert str(exc.value) == message

    @pytest.mark.parametrize("raw", ["1/100", F(1, 100), " 0.01 "], ids=repr)
    def test_eps_forms_build_one_instance(self, raw):
        assert generate(GeneratorSpec("rp-lb", {"n": 3, "eps": raw})) == \
            generate(GeneratorSpec("rp-lb", {"n": 3, "eps": F(1, 100)}))

    def test_missing_required_parameter(self):
        with pytest.raises(GeneratorError) as exc:
            generate(GeneratorSpec("log-m-lb", {"k": 4}))
        assert str(exc.value) == "missing required parameter 'q'"


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
