"""Tests for module building, loading, PLT/GOT linking, interposition."""

import hashlib

import pytest

from repro.binary import (
    LinkError,
    LinkResolutionError,
    Loader,
    ModuleBuilder,
)
from repro.cpu import Executor, Machine, PROT_READ, PROT_WRITE
from repro.isa import A, Cond, Label
from repro.isa.registers import R0, R1, R2, SP

STACK_TOP = 0x7FFFFFFFF000


def run_image(image, max_steps=100_000, syscall_handler=None):
    """Map a stack into the image and run from the entry point."""
    image.memory.map_region(
        STACK_TOP - 0x10000, 0x10000, PROT_READ | PROT_WRITE
    )
    machine = Machine(image.memory)
    machine.ip = image.entry_address
    machine.set_reg(SP, STACK_TOP - 8)
    cpu = Executor(machine, syscall_handler=syscall_handler)
    cpu.run(max_steps)
    return cpu


def make_lib():
    lib = ModuleBuilder("libsim.so")
    lib.add_function("triple", [A.movr(R0, R1), A.add(R0, R1), A.add(R0, R1), A.ret()])
    lib.add_function("identity", [A.movr(R0, R1), A.ret()])
    return lib.build()


class TestModuleBuilder:
    def test_duplicate_function_rejected(self):
        b = ModuleBuilder("m")
        b.add_function("f", [A.ret()])
        with pytest.raises(LinkError):
            b.add_function("f", [A.ret()])

    def test_duplicate_data_rejected(self):
        b = ModuleBuilder("m")
        b.add_data("d", b"x")
        with pytest.raises(LinkError):
            b.add_data("d", b"y")

    def test_entry_must_be_function(self):
        b = ModuleBuilder("m")
        b.set_entry("missing")
        with pytest.raises(LinkError):
            b.build()

    def test_function_ranges_cover_code(self):
        b = ModuleBuilder("m")
        b.add_function("f", [A.mov(R0, 1), A.ret()])
        b.add_function("g", [A.ret()])
        m = b.build()
        (fs, fe) = m.function_ranges["f"]
        (gs, ge) = m.function_ranges["g"]
        assert fs == 0 and fe == gs and ge == len(m.code)

    def test_plt_stubs_created_per_import(self):
        b = ModuleBuilder("m")
        b.import_symbol("ext1")
        b.import_symbol("ext2")
        b.add_function("main", [A.ret()])
        m = b.build()
        assert set(m.plt) == {"ext1", "ext2"}
        assert set(m.got) == {"ext1", "ext2"}
        # PLT stubs live past all functions in the code section.
        assert all(off >= m.function_ranges["main"][1] for off in m.plt.values())

    def test_exports_only_exported(self):
        b = ModuleBuilder("m")
        b.add_function("pub", [A.ret()])
        b.add_function("priv", [A.ret()], export=False)
        m = b.build()
        assert "pub" in m.symbols
        assert "priv" not in m.symbols
        assert "priv" in m.local_symbols


class TestLoader:
    def test_entry_and_layout(self):
        b = ModuleBuilder("app")
        b.add_function("main", [A.mov(R0, 5), A.halt()])
        b.set_entry("main")
        image = Loader().load(b.build())
        cpu = run_image(image)
        assert cpu.machine.reg(R0) == 5
        exe = image.executable
        assert exe.contains(image.entry_address)
        assert image.module_of(image.entry_address) is exe

    def test_missing_needed_raises(self):
        b = ModuleBuilder("app")
        b.add_function("main", [A.halt()])
        b.set_entry("main")
        b.add_needed("libmissing.so")
        with pytest.raises(LinkResolutionError):
            Loader().load(b.build())

    def test_undefined_import_raises(self):
        b = ModuleBuilder("app")
        b.import_symbol("nosuchfn")
        b.add_function("main", [A.call("nosuchfn"), A.halt()])
        b.set_entry("main")
        with pytest.raises(LinkResolutionError):
            Loader().load(b.build())

    def test_cross_module_call_via_plt(self):
        app = ModuleBuilder("app")
        app.import_symbol("triple")
        app.add_needed("libsim.so")
        app.add_function(
            "main", [A.mov(R1, 7), A.call("triple"), A.halt()]
        )
        app.set_entry("main")
        image = Loader({"libsim.so": make_lib()}).load(app.build())
        cpu = run_image(image)
        assert cpu.machine.reg(R0) == 21

    def test_plt_call_is_indirect_jump(self):
        """Module transitions must flow through PLT indirect jumps."""
        from repro.cpu import CoFIKind

        app = ModuleBuilder("app")
        app.import_symbol("identity")
        app.add_needed("libsim.so")
        app.add_function("main", [A.mov(R1, 1), A.call("identity"), A.halt()])
        app.set_entry("main")
        image = Loader({"libsim.so": make_lib()}).load(app.build())
        image.memory.map_region(
            STACK_TOP - 0x10000, 0x10000, PROT_READ | PROT_WRITE
        )
        machine = Machine(image.memory)
        machine.ip = image.entry_address
        machine.set_reg(SP, STACK_TOP - 8)
        cpu = Executor(machine)
        events = []
        cpu.add_listener(events.append)
        cpu.run(10_000)
        kinds = [e.kind for e in events]
        assert kinds == [
            CoFIKind.DIRECT_CALL,  # into the PLT stub
            CoFIKind.INDIRECT_JMP,  # PLT -> library
            CoFIKind.RET,  # back to caller
        ]
        lib = image.by_name("libsim.so")
        jmp = events[1]
        assert image.executable.contains(jmp.src)
        assert lib.contains(jmp.dst)
        assert jmp.dst == lib.addr_of("identity")

    def test_transitive_needed(self):
        liba = ModuleBuilder("liba.so")
        liba.import_symbol("leaf")
        liba.add_needed("libb.so")
        liba.add_function("mid", [A.call("leaf"), A.ret()])
        libb = ModuleBuilder("libb.so")
        libb.add_function("leaf", [A.mov(R0, 11), A.ret()])
        app = ModuleBuilder("app")
        app.import_symbol("mid")
        app.add_needed("liba.so")
        app.add_function("main", [A.call("mid"), A.halt()])
        app.set_entry("main")
        image = Loader(
            {"liba.so": liba.build(), "libb.so": libb.build()}
        ).load(app.build())
        cpu = run_image(image)
        assert cpu.machine.reg(R0) == 11
        assert len(image.modules) == 3

    def test_symbol_interposition_order(self):
        """First provider in DT_NEEDED breadth-first order wins."""
        lib1 = ModuleBuilder("lib1.so")
        lib1.add_function("shared", [A.mov(R0, 1), A.ret()])
        lib2 = ModuleBuilder("lib2.so")
        lib2.add_function("shared", [A.mov(R0, 2), A.ret()])
        app = ModuleBuilder("app")
        app.import_symbol("shared")
        app.add_needed("lib1.so")
        app.add_needed("lib2.so")
        app.add_function("main", [A.call("shared"), A.halt()])
        app.set_entry("main")
        image = Loader(
            {"lib1.so": lib1.build(), "lib2.so": lib2.build()}
        ).load(app.build())
        cpu = run_image(image)
        assert cpu.machine.reg(R0) == 1

    def test_vdso_takes_precedence(self):
        vdso = ModuleBuilder("vdso")
        vdso.add_function("gettimeofday", [A.mov(R0, 777), A.ret()])
        lib = ModuleBuilder("libsim.so")
        lib.add_function("gettimeofday", [A.mov(R0, 1), A.ret()])
        app = ModuleBuilder("app")
        app.import_symbol("gettimeofday")
        app.add_needed("libsim.so")
        app.add_function("main", [A.call("gettimeofday"), A.halt()])
        app.set_entry("main")
        image = Loader(
            {"libsim.so": lib.build()}, vdso=vdso.build()
        ).load(app.build())
        cpu = run_image(image)
        assert cpu.machine.reg(R0) == 777
        assert image.vdso is not None
        assert image.module_of(image.vdso.base) is image.vdso

    def test_pointer_table_relocation(self):
        b = ModuleBuilder("app")
        b.add_function("f1", [A.mov(R0, 100), A.ret()])
        b.add_function("f2", [A.mov(R0, 200), A.ret()])
        b.add_pointer_table("handlers", ["f1", "f2"])
        b.add_function(
            "main",
            [
                A.lea(R2, "handlers"),
                A.load(R2, R2, 8),  # handlers[1] == f2
                A.callr(R2),
                A.halt(),
            ],
        )
        b.set_entry("main")
        image = Loader().load(b.build())
        cpu = run_image(image)
        assert cpu.machine.reg(R0) == 200

    def test_data_objects_loaded(self):
        b = ModuleBuilder("app")
        b.add_data("greeting", b"hello", export=True)
        b.add_function(
            "main", [A.lea(R1, "greeting"), A.loadb(R0, R1, 1), A.halt()]
        )
        b.set_entry("main")
        image = Loader().load(b.build())
        cpu = run_image(image)
        assert cpu.machine.reg(R0) == ord("e")
        lm = image.executable
        assert image.memory.read(lm.addr_of("greeting"), 5) == b"hello"

    def test_code_pages_not_writable(self):
        from repro.cpu import MemoryError_

        b = ModuleBuilder("app")
        b.add_function("main", [A.halt()])
        b.set_entry("main")
        image = Loader().load(b.build())
        with pytest.raises(MemoryError_):
            image.memory.write(image.executable.base, b"\x00")

    def test_by_name_missing(self):
        b = ModuleBuilder("app")
        b.add_function("main", [A.halt()])
        b.set_entry("main")
        image = Loader().load(b.build())
        with pytest.raises(KeyError):
            image.by_name("nope")


#: sha256 over every mapped page (number, protection, bytes) of each
#: server's loaded image, taken when the loader still wrote GOT slots
#: and relocations through the CPU-level ``Memory.write_u64``.
SERVER_IMAGE_PINS = {
    "exim": "03941c5bf91265d978da0af648d94cc5993fcf301680072ff02432794154be08",
    "nginx": "f291c0866480adcbfe90a05010c6ebdc77c4c5846df9879aec89577c072f9c9c",
    "openssh": "03f81ef902170829eaeb88241ac383d30582ea10a2d33ac4b80ff5e9959e325d",
    "vsftpd": "ca4ed55f88554663a42345c5297579d65691cf8e008531d7ba95e30fa2c07b84",
}


@pytest.mark.parametrize("name", sorted(SERVER_IMAGE_PINS))
def test_server_image_bytes_pinned(name):
    from repro.experiments.common import libraries
    from repro.workloads import SERVER_BUILDERS, build_vdso

    image = Loader(libraries(), vdso=build_vdso()).load(
        SERVER_BUILDERS[name]()
    )
    memory = image.memory
    pages, _ = memory.tables()
    digest = hashlib.sha256()
    for pageno in sorted(pages):
        digest.update(pageno.to_bytes(8, "little"))
        digest.update(bytes([memory.protection(pageno)]))
        digest.update(pages[pageno])
    assert digest.hexdigest() == SERVER_IMAGE_PINS[name]
