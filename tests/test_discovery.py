"""Tests for binary-only function-boundary discovery."""

import pytest

from repro.analysis.discover import (
    discover_functions,
    verify_against_ground_truth,
)
from repro.workloads import (
    SERVER_BUILDERS,
    UTILITY_BUILDERS,
    build_libsim,
)
from repro.workloads.spec import SPEC_NAMES, build_spec_program


ALL_MODULES = (
    [("libsim", build_libsim)]
    + [(name, builder) for name, builder in SERVER_BUILDERS.items()]
    + [(name, builder) for name, builder in UTILITY_BUILDERS.items()]
)


class TestDiscovery:
    @pytest.mark.parametrize("name,builder", ALL_MODULES)
    def test_recovers_all_recorded_functions(self, name, builder):
        module = builder()
        discovered = discover_functions(module)
        problems = verify_against_ground_truth(module, discovered)
        assert problems == [], f"{name}: {problems}"

    @pytest.mark.parametrize("spec", SPEC_NAMES[:4])
    def test_recovers_spec_functions(self, spec):
        module = build_spec_program(spec, 1)
        discovered = discover_functions(module)
        assert verify_against_ground_truth(module, discovered) == []

    def test_plt_stubs_named(self):
        module = SERVER_BUILDERS["nginx"]()
        discovered = discover_functions(module)
        names = {name for _, name in discovered.ranges.values()}
        assert any(name.endswith("@plt") for name in names)

    def test_every_range_decodes(self):
        module = build_libsim()
        discovered = discover_functions(module)
        from repro.isa.encoding import decode_at

        for start, (end, _) in discovered.ranges.items():
            pos = start
            while pos < end:
                _, length = decode_at(module.code, pos)
                pos += length
            assert pos == end

    def test_discovery_based_cfg_identical(self):
        """The full COTS pipeline: building the O-CFG from *recovered*
        boundaries must agree with the ground-truth build."""
        from dataclasses import replace

        from repro.analysis import build_ocfg
        from repro.binary import Loader
        from repro.workloads import build_nginx, build_vdso

        def stripped(module):
            # PLT stubs are synthesised by the builder, not read.
            ranges = discover_functions(module).as_function_ranges()
            return replace(module, function_ranges={
                name: span for name, span in ranges.items()
                if not name.endswith("@plt")
            })

        truth = build_ocfg(Loader({"libsim.so": build_libsim()},
                                  vdso=build_vdso()).load(build_nginx()))
        recovered = build_ocfg(
            Loader({"libsim.so": stripped(build_libsim())},
                   vdso=stripped(build_vdso())).load(
                       stripped(build_nginx()))
        )
        assert set(truth.blocks) == set(recovered.blocks)
        assert {
            (e.src, e.dst, e.kind, e.branch_addr) for e in truth.edges
        } == {
            (e.src, e.dst, e.kind, e.branch_addr)
            for e in recovered.edges
        }
        assert truth.indirect_targets == recovered.indirect_targets

    def test_unexported_functions_get_synthetic_names(self):
        """Private (non-exported) functions are still discovered as
        direct-call targets, under sub_<addr> labels."""
        from repro.lang import Call, Const, Func, Program, Return

        prog = Program("m")
        prog.add_func(Func("hidden", [], [Return(Const(1))],
                           export=False))
        prog.add_func(Func("main", [],
                           [Return(Call("hidden", []))]))
        prog.set_entry("main")
        module = prog.build()
        discovered = discover_functions(module)
        start, _ = module.function_ranges["hidden"]
        assert start in discovered.ranges
        # Named from the call-target seed, not the symbol table.
        end, name = discovered.ranges[start]
        assert name == f"sub_{start:x}" or name == "hidden"
