"""The pre-decoded interpreter is the reference machine, bit for bit.

The digests below were taken from the per-instruction interpreter that the
pre-decoded loop replaced.  Any change to what the machine computes, to
the observer stream, or to where a raising callback leaves a hart fails
here.
"""

import hashlib

import pytest

from repro.arch.crash import PowerFailure
from repro.compiler import CapriCompiler, OptConfig
from repro.ir import IRBuilder
from repro.ir.instructions import BinOp, Move
from repro.ir.values import Imm
from repro.isa.machine import Machine
from repro.isa.trace import CollectingObserver, Observer
from repro.trace.record import capture_trace
from repro.workloads import get_workload

SCALE = 0.05

#: workload -> (uncompiled, ``OptConfig.licm(32)``-compiled) digest of the
#: captured ExecTrace at ``SCALE`` (see :func:`trace_digest`).
TRACE_DIGESTS = {
    "505.mcf_r": (
        "dc26d9ba8b095604309c455f2ab0c25ba4577fa3e81eb5a6f6b0d10ce1781cef",
        "69477036b4f84706f6fcfc2750bdf87644ca931b53307620b55f26db28965698",
    ),
    "508.namd_r": (
        "6c0daf75c9ad6d020a69e3d3b2e13388e14c79911319bec6e1721ce772fb97b6",
        "4f90a58a5b438b1e624c5e35c1739ae5b779785c8879d6d73321bf712d67643e",
    ),
    "519.lbm_r": (
        "a671c26e6f8108e006d0f1d11322d616120ce5a4f3a916da8b93a3d2e7897200",
        "e11bde161e44f654325e824321c7c9abc92acdce9b0be3775d60a2c24595d86c",
    ),
    "531.deepsjeng_r": (
        "3869496552d5cb7d8c2ef85e93d4cbd7e49c848e97f87029ad52d175cd11851b",
        "645ac098c444433cff895ecdf588e802f6b37e88ba3acb8212f1e46491f0df17",
    ),
    "541.leela_r": (
        "f25d97408511ca19e02848ed30393ed2d184ed9d748003d2099ca17f273cd529",
        "917c10718c9eaff883c67f3aac26c07420cf3c31c1574f85b548174a59c1077f",
    ),
    "barnes": (
        "567bf77077f2bc6610d05b584bf7684369978cf34f15f6a621f0ddd55fb4216a",
        "879badffea305055c793b8fb3a8eda478d3357173948d7feaaecfccaa04e735c",
    ),
    "deep-call": (
        "9eb6783d4995ea69965b65b0b6ed3d8bb16af69bc4d662ebe0be9525ae0c5b77",
        "b49ae901cdcfa8cdd70121b5271e1ef16c67f92a24c3f691c3e9e7161ad53080",
    ),
    "fmm": (
        "5174f43d0a2a869e93e32fc815277dbb8d580e7ba915dc7e1368adc2353a1424",
        "b51ecec5b01d8845a2af1eada43d32c0efaf7fc77eeb9d44b88f87b18a3c8f57",
    ),
    "genome": (
        "0842a8a842fcf985f0be57004e966966d52652934b4bb0e89c1eaa2643cd7554",
        "284bd87f29f0a97ba5c4d49b79426436f68eb618e75a84a301546d6c4c2a7020",
    ),
    "hot-writeback": (
        "5a547d8ff6365a3aa1d71f2d53a49ea87fbc71a98dcb0ec0e34b3cbe7e639821",
        "cb9fd58aa0e00c5dfbf693cc0ccc25dcb8246502bff0b02ecafcbf438207f83e",
    ),
    "intruder": (
        "bed72b97a1d7441608328b3c210ff4b13a7f825dd4f8abecd78c0700803929f6",
        "079bb835ab7306ed95449ba624952f91bc637ed4ea5fe0a37e2094e2415b2b06",
    ),
    "kv_store": (
        "7ec4bcc5434c94f9856bf134682222a541f6e869dfbf80900bdf6fee05dd0cc9",
        "511c570beafb7cca917a0534c633d1369028f9d7152ae5a52a9790ae47085c2d",
    ),
    "labyrinth": (
        "84266778a1fb36485ddbcb9e5ac3e28a28ed46cd2a14fa2dac5e1f5895eb6d68",
        "8d092d116b0d9c55f7e06d10fcabce84a1d342105620842208a25ac2d37d29d8",
    ),
    "ocean": (
        "5c593d7ba2038a9464a7254145433f5af10c1cadecc2dccfae1eb61ddb996c90",
        "370c1ef07c8ad5039fe00e2fc33002926fbc81f2faabaf48a97285e4901e9f55",
    ),
    "oskernel": (
        "e39d8199115b7e527c094d59d7565b182bd349642deacbc2f3ce5a167992888b",
        "00412dcff8df7a24dde9e0a7f1dfcd833b61265ede2631d8299274d15eccb2fe",
    ),
    "radiosity": (
        "b8eafa65d9b9cceb10e5878216fd8eeb3711ebc71740732f98fc173aff993fc7",
        "3f6e76ae92da461ee050df887d445c494384c2c8fa1923196d3300e69bbb9b52",
    ),
    "radix": (
        "3dd70ce410433520b3e61d6f69efb136943017f6c50ed1bf9ffcd8da4369ecb2",
        "b06c235ece6dc0ca39a0d393ce8709b66a2e58e8d9b8f396be299c3c6521120b",
    ),
    "raytrace": (
        "e63ed7f7a6a44a95f51df918f7d6a4fcdde78eca63e5cb9af314b77524b6e849",
        "b765554dc50d9c8f7e00ba12855c71c339d7b2f9bcb732b17bf5734f92bfde4f",
    ),
    "ssca2": (
        "a792b515a7d375f8952d209eafff88a76762759f17581d8dfe5f34eb9edef4a8",
        "868909dbea7fec6c2112942a965f2a3bf6ea1df5c632d2547aadb55d9026b4c9",
    ),
    "stream-write": (
        "66992689ad8abbb1fc51e557af2aa25213e24d6b146adc87049fbd0a84797573",
        "0254d6ea81892f4c3008bbeeb60ef55dda9a601403136938b4e7a893fab89b41",
    ),
    "vacation": (
        "6f5547e68bd23437c7c1889035bdd0c7df056ac38777d71c0d459625e6ab5fb2",
        "e620536cec8075f0d65d4d24893f296e7b1a6356d1e865bd7f4e39ecec9dd77e",
    ),
    "volrend": (
        "d64ca511436c7d2ccd6e4b42ef0504e13c2b36759d26acd9b8ac000c651b0737",
        "c09ea651e2ce4fc09e272571ba60650eeeb1d1dfe3490b593e2c955bfde3ee05",
    ),
    "water-nsquared": (
        "d96cdc7f74aa17d0219d394cb9268475ac83d87ab3f5582a0f850ec56503539a",
        "0ae628da56ff0199bf89871bf94c29f47bd94354537048ebeea8eeb5e8ff186a",
    ),
    "water-spatial": (
        "56aab9cb9942bfc2274392fe30e60ac200c37393d002d4eef6b37180aeaa13e4",
        "8b96b85f762628a6e34b4a5d905e762d9facc21ee6bc1a9684c5d83645b45035",
    ),
}


def trace_digest(trace) -> str:
    """sha256 over all five event columns, the retire names, the
    continuations, the final data, the I/O log and ``total_retired``."""
    h = hashlib.sha256()
    for part in (
        list(trace.kinds),
        list(trace.cores),
        list(trace.a),
        list(trace.b),
        list(trace.c),
        trace.retire_names,
        trace.continuations,
        sorted(trace.final_data.items()),
        trace.io_log,
        trace.total_retired,
    ):
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _compiled(name):
    module, spawns = get_workload(name).build(SCALE)
    return CapriCompiler(OptConfig.licm(32)).compile(module).module, spawns


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_captured_trace_matches_pinned_digest(name):
    module, spawns = get_workload(name).build(SCALE)
    plain, compiled = TRACE_DIGESTS[name]
    assert trace_digest(capture_trace(module, spawns)) == plain
    module = CapriCompiler(OptConfig.licm(32)).compile(module).module
    assert trace_digest(capture_trace(module, spawns)) == compiled


@pytest.mark.parametrize("name", ["genome", "deep-call", "ocean"])
def test_single_steps_deliver_the_quantum_stream(name):
    """``_run_quantum(hart, obs, 1)`` repeated ``quantum`` times per turn
    (the litmus explorer's contract) is the same machine as full quanta."""
    module, spawns = _compiled(name)
    whole = Machine(module, quantum=32)
    stepped = Machine(module, quantum=32)
    for machine in (whole, stepped):
        for func, args in spawns:
            machine.spawn(func, args)
    expected = CollectingObserver()
    whole.run(expected)

    got = CollectingObserver()
    while not all(h.halted for h in stepped.harts):
        for hart in stepped.harts:
            for _ in range(32):
                if hart.halted:
                    break
                assert stepped._run_quantum(hart, got, 1) == 1
    assert got.events == expected.events
    assert stepped.memory == whole.memory
    assert stepped.io_log == whole.io_log
    assert stepped.total_retired == whole.total_retired
    assert [h.retired for h in stepped.harts] == [h.retired for h in whole.harts]


class _FailAt(Observer):
    """Raises PowerFailure at the ``at``-th (0-based) ``event`` callback."""

    def __init__(self, event, at):
        self.event = event
        self.left = at

    def _tick(self, event):
        if event == self.event:
            if self.left == 0:
                raise PowerFailure(None)
            self.left -= 1

    def on_retire(self, core, kind):
        self._tick("on_retire")

    def on_store(self, core, addr, value, old):
        self._tick("on_store")

    def on_boundary(self, core, region_id, continuation):
        self._tick("on_boundary")


#: (workload, event, at) -> (per-hart (label, index, retired), total_retired)
#: after the failure, as the per-instruction interpreter left them.
FAILURE_POSITIONS = {
    ('genome', 'on_retire', 1): ((('entry', 1, 0),), 0),
    ('genome', 'on_retire', 37): ((('if.end.6', 5, 32),), 32),
    ('genome', 'on_retire', 411): ((('for.body.2', 7, 384),), 384),
    ('genome', 'on_store', 1): ((('if.end.6.u1', 1, 32),), 32),
    ('genome', 'on_store', 37): ((('for.exit.3.split', 1, 837),), 837),
    ('genome', 'on_store', 411): ((('for.exit.3.split', 1, 837),), 837),
    ('genome', 'on_boundary', 1): ((('entry', 1, 0),), 0),
    ('genome', 'on_boundary', 37): ((('for.exit.3.split', 1, 837),), 837),
    ('genome', 'on_boundary', 411): ((('for.exit.3.split', 1, 837),), 837),
    ('ocean', 'on_retire', 1): ((('entry', 1, 0), ('entry', 0, 0), ('entry', 0, 0), ('entry', 0, 0)), 0),
    ('ocean', 'on_retire', 37): ((('for.body.8', 8, 32), ('entry', 5, 0), ('entry', 0, 0), ('entry', 0, 0)), 32),
    ('ocean', 'on_retire', 411): ((('for.body.8.u4', 15, 96), ('for.body.8.u3', 9, 96), ('for.body.8.u3', 9, 96), ('for.body.8.u3', 9, 96)), 384),
    ('ocean', 'on_store', 1): ((('for.body.8.u1', 12, 32), ('for.body.8', 8, 32), ('for.body.8', 8, 32), ('for.body.8', 8, 32)), 128),
    ('ocean', 'on_store', 37): ((('for.body.8.u2', 12, 224), ('for.body.8.u1', 7, 224), ('for.body.8.u1', 7, 224), ('for.body.8.u1', 7, 224)), 896),
    ('ocean', 'on_store', 411): ((('for.body.8.u1', 5, 2336), ('for.body.8.u1', 5, 2336), ('for.body.8.u1', 5, 2336), ('for.body.8', 12, 2304)), 9312),
    ('ocean', 'on_boundary', 1): ((('entry', 1, 0), ('entry', 0, 0), ('entry', 0, 0), ('entry', 0, 0)), 0),
    ('ocean', 'on_boundary', 37): ((('for.header.7', 2, 576), ('for.header.7', 1, 544), ('for.body.8.u6', 13, 544), ('for.body.8.u6', 13, 544)), 2208),
    ('ocean', 'on_boundary', 411): ((('for.exit.12.split', 1, 6554), ('for.exit.12.split', 1, 6554), ('for.exit.12.split', 1, 6554), ('for.exit.12.split', 1, 6554)), 26216),
}


@pytest.mark.parametrize("case", sorted(FAILURE_POSITIONS))
def test_failure_mid_quantum_leaves_the_hart_where_it_was(case):
    name, event, at = case
    module, spawns = _compiled(name)
    machine = Machine(module, quantum=32)
    for func, args in spawns:
        machine.spawn(func, args)
    try:
        machine.run(_FailAt(event, at))
    except PowerFailure:
        pass
    harts = tuple((h.label, h.index, h.retired) for h in machine.harts)
    assert (harts, machine.total_retired) == FAILURE_POSITIONS[case]


class TestDecodedBlocks:
    def _module(self):
        b = IRBuilder("m")
        with b.function("main") as f:
            f.ret(f.add(f.li(20), 22))
        return b.module

    def _run(self, module):
        return Machine(module).run_function("main")

    def test_decode_is_cached_on_the_block(self):
        module = self._module()
        block = module.functions["main"].entry
        assert block.decoded is None
        assert self._run(module) == 42
        decoded = block.decoded
        assert decoded is not None
        assert self._run(module) == 42
        assert block.decoded is decoded

    def test_replaced_instruction_is_redecoded(self):
        module = self._module()
        block = module.functions["main"].entry
        assert self._run(module) == 42
        add = next(i for i in block.instrs if isinstance(i, BinOp))
        index = block.instrs.index(add)
        block.instrs[index] = BinOp("mul", add.dst, add.lhs, add.rhs)
        assert self._run(module) == 20 * 22

    def test_inserted_and_deleted_instructions_are_redecoded(self):
        module = self._module()
        block = module.functions["main"].entry
        assert self._run(module) == 42
        add = next(i for i in block.instrs if isinstance(i, BinOp))
        index = block.instrs.index(add)
        block.instrs.insert(index + 1, Move(add.dst, Imm(7)))
        assert self._run(module) == 7
        del block.instrs[index + 1]
        assert self._run(module) == 42

    def test_clone_starts_undecoded(self):
        from repro.compiler.clone import clone_module

        module = self._module()
        assert self._run(module) == 42
        clone = clone_module(module)
        assert clone.functions["main"].entry.decoded is None
        assert self._run(clone) == 42


def test_run_function_returns_top_level_ret_and_leaves_run_alone():
    b = IRBuilder("m")
    with b.function("main", params=["x"]) as f:
        f.ret(f.add(f.param(0), 1))
    machine = Machine(b.module)
    assert machine.run_function("main", [41]) == 42
    assert machine.harts[0].result == 42
    assert "_do_ret" not in vars(machine)  # no per-instance method patching
