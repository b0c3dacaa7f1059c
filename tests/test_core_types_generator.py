"""Unit tests for the Ballista type system and the case generator."""

import pytest

from repro.core.generator import CaseGenerator, PAPER_CAP
from repro.core.mut import MuT, MuTRegistry, facade_call
from repro.core.types import ParamType, TypeRegistry, default_types


def dummy_call(ctx, args):
    return 0


def make_mut(name, params, api="libc", group="C string"):
    return MuT(name, api, group, tuple(params), dummy_call)


class TestParamTypes:
    def test_values_inherit_from_parent(self):
        types = TypeRegistry()
        base = types.new_type("base")
        base.add("B1", lambda ctx: 1)
        child = types.new_type("child", parent="base")
        child.add("C1", lambda ctx: 2)
        names = [v.name for v in child.all_values()]
        assert names == ["B1", "C1"]  # parents first, stable order

    def test_grandparent_inheritance(self):
        types = TypeRegistry()
        types.new_type("a").add("A", lambda ctx: 0)
        types.new_type("b", parent="a").add("B", lambda ctx: 0)
        c = types.new_type("c", parent="b")
        assert [v.name for v in c.all_values()] == ["A", "B"]

    def test_find_by_name_and_missing(self):
        types = TypeRegistry()
        t = types.new_type("t")
        t.add("X", lambda ctx: 7)
        assert t.find("X").name == "X"
        with pytest.raises(KeyError):
            t.find("Y")

    def test_duplicate_type_rejected(self):
        types = TypeRegistry()
        types.new_type("t")
        with pytest.raises(ValueError):
            types.new_type("t")

    def test_unknown_type_lookup(self):
        with pytest.raises(KeyError, match="unknown parameter type"):
            TypeRegistry().get("nope")

    def test_decorator_registration(self):
        t = ParamType("t")

        @t.value(exceptional=True)
        def weird_value(ctx):
            return -1

        assert t.find("WEIRD_VALUE").exceptional

    def test_default_types_complete(self):
        types = default_types()
        for name in (
            "buffer", "cstring", "filename", "fileptr", "fd", "handle",
            "dword", "double_val", "char_int", "format_string", "wstring",
        ):
            assert name in types
        assert types.total_values() > 100


class TestGenerator:
    @pytest.fixture()
    def types(self):
        types = TypeRegistry()
        small = types.new_type("small")
        for index in range(3):
            small.add(f"S{index}", lambda ctx, i=index: i)
        big = types.new_type("big")
        for index in range(10):
            big.add(f"B{index}", lambda ctx, i=index: i)
        return types

    def test_combination_count(self, types):
        gen = CaseGenerator(types)
        assert gen.combination_count(make_mut("m", ["small", "big"])) == 30
        assert gen.combination_count(make_mut("m0", [])) == 1

    def test_exhaustive_below_cap(self, types):
        gen = CaseGenerator(types, cap=100)
        cases = list(gen.cases(make_mut("m", ["small", "small"])))
        assert len(cases) == 9
        assert len({c.value_names for c in cases}) == 9
        # Odometer order: last parameter varies fastest.
        assert cases[0].value_names == ("S0", "S0")
        assert cases[1].value_names == ("S0", "S1")

    def test_cap_limits_and_dedups(self, types):
        gen = CaseGenerator(types, cap=20)
        mut = make_mut("m", ["big", "big"])  # 100 combinations
        cases = list(gen.cases(mut))
        assert len(cases) == 20
        assert len({c.value_names for c in cases}) == 20
        assert gen.is_capped(mut)
        assert gen.case_count(mut) == 20

    def test_identical_sequence_across_runs(self, types):
        gen = CaseGenerator(types, cap=15)
        mut = make_mut("SomeCall", ["big", "big"])
        first = [c.value_names for c in gen.cases(mut)]
        second = [c.value_names for c in gen.cases(mut)]
        assert first == second

    def test_identical_sequence_across_generator_instances(self, types):
        mut = make_mut("SomeCall", ["big", "big"])
        a = [c.value_names for c in CaseGenerator(types, cap=15).cases(mut)]
        b = [c.value_names for c in CaseGenerator(types, cap=15).cases(mut)]
        assert a == b

    def test_different_muts_sample_differently(self, types):
        gen = CaseGenerator(types, cap=15)
        a = [c.value_names for c in gen.cases(make_mut("CallA", ["big", "big"]))]
        b = [c.value_names for c in gen.cases(make_mut("CallB", ["big", "big"]))]
        assert a != b

    def test_case_indices_sequential(self, types):
        gen = CaseGenerator(types, cap=10)
        cases = list(gen.cases(make_mut("m", ["big", "big"])))
        assert [c.index for c in cases] == list(range(10))

    def test_resolve_maps_names_back(self, types):
        gen = CaseGenerator(types, cap=10)
        mut = make_mut("m", ["small", "big"])
        case = next(iter(gen.cases(mut)))
        values = gen.resolve(mut, case)
        assert [v.name for v in values] == list(case.value_names)

    def test_describe(self, types):
        gen = CaseGenerator(types, cap=5)
        case = next(iter(gen.cases(make_mut("m", ["small"]))))
        assert case.describe() == "m(S0)"


class TestSharedPlanCache:
    def test_a_campaign_leaves_the_cached_cases_as_planned(self):
        """``TestCase`` is a plain slotted record, not a frozen one, and
        the plan cache hands the same instances to every variant: a run
        must leave each cached case equal to what was planned."""
        from repro.core.campaign import Campaign, CampaignConfig
        from repro.posix.linux import LINUX
        from repro.win32.variants import WIN98

        generator = CaseGenerator(default_types(), cap=20)
        campaign = Campaign(
            [WIN98, LINUX], config=CampaignConfig(cap=20), generator=generator
        )

        def snapshot():
            return {
                name: [(c.mut_name, c.index, c.value_names) for c in plan]
                for name, plan in generator._plan_cache.items()
            }

        planned = snapshot()
        assert planned  # the campaign planned every MuT up front
        campaign.run()
        assert snapshot() == planned


class TestPaperScaleCounts:
    """Section 3.1: 'Testing was capped at 5000 ... 72 Windows MuTs and
    34 POSIX MuTs were capped at 5000 tests each.'  Our pools are smaller
    than the paper's, so the absolute counts differ; the *structure*
    (many multi-parameter Win32 calls cap, few POSIX ones do) must hold.
    """

    def test_capped_mut_counts_at_paper_cap(self, registry, types):
        gen = CaseGenerator(types, cap=PAPER_CAP)
        win32_capped = [
            m.name for m in registry.by_api("win32") if gen.is_capped(m)
        ]
        posix_capped = [
            m.name for m in registry.by_api("posix") if gen.is_capped(m)
        ]
        assert len(win32_capped) > len(posix_capped)
        assert "CreateFileA" in win32_capped  # 7 parameters
        assert "CreateProcessA" in win32_capped  # 10 parameters
        assert "read" not in posix_capped  # 3 small pools

    def test_total_case_volume_is_substantial(self, registry, types):
        gen = CaseGenerator(types, cap=PAPER_CAP)
        total = sum(gen.case_count(m) for m in registry.by_api("win32"))
        assert total > 100_000  # the paper ran 380k on Win32 at its pools


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        registry = MuTRegistry()
        registry.register(make_mut("x", ["small"] if False else []))
        with pytest.raises(ValueError):
            registry.register(make_mut("x", []))

    def test_find_unique_and_ambiguous(self, registry):
        assert registry.find("GetThreadContext").api == "win32"
        with pytest.raises(KeyError, match="ambiguous"):
            registry.find("rename")  # exists in libc and posix

    def test_facade_call_dispatches(self, nt_ctx):
        call = facade_call("win32", "GetTickCount")
        assert call(nt_ctx, ()) == nt_ctx.machine.clock.tick_count()

    def test_for_variant_counts_match_paper(self, registry):
        from repro.posix.linux import LINUX
        from repro.win32.variants import WIN95, WIN98, WINCE, WINNT

        assert len(registry.for_variant(WIN95)) == 227
        assert len(registry.for_variant(WIN98)) == 237
        assert len(registry.for_variant(WINNT)) == 237
        assert len(registry.for_variant(WINCE)) == 179  # 71 + 108
        assert len(registry.for_variant(LINUX)) == 185  # 91 + 94
