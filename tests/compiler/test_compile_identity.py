"""Capri compilation is pinned byte for byte.

The digests below were taken before the compiler's dataflow analyses moved
to int bitsets.  Any change to where boundaries, checkpoint stores or
recovery blocks land, or to the order the printer sees them in, fails
here.  The test must pass under every ``PYTHONHASHSEED``: def-site
numbering and decode order may not depend on set iteration order.
"""

import hashlib

import pytest

from repro.compiler import CapriCompiler, OptConfig
from repro.ir import format_module
from repro.workloads import get_workload

THRESHOLDS = (32, 256, 1024)

#: workload -> threshold -> (sha256 of ``format_module`` of the
#: ``OptConfig.licm(threshold)`` compile at the workload's default scale,
#: {function: (checkpoints_inserted, regions)}).
COMPILE_DIGESTS = {
    "505.mcf_r": {
        32: (
            "141dedf6eebefd77becc810a09bd385585a86899ede552a793489bd1ac2aeefe",
            {"main": (14, 3)},
        ),
        256: (
            "44fe5d459bc5f2499e83a8443cc9bb7e7b0d237ad48e4ca0d9e2457d5d1dea29",
            {"main": (38, 3)},
        ),
        1024: (
            "44fe5d459bc5f2499e83a8443cc9bb7e7b0d237ad48e4ca0d9e2457d5d1dea29",
            {"main": (38, 3)},
        ),
    },
    "508.namd_r": {
        32: (
            "1cc36afd45e35f2f80362fd094f95492f21637adbf96ec20de1c82cee76b0201",
            {"main": (38, 4)},
        ),
        256: (
            "1bbc59b2303a491820c007102fcf7524218f2cde8d66abd5a7f5a6c4c005f3fa",
            {"main": (146, 4)},
        ),
        1024: (
            "1bbc59b2303a491820c007102fcf7524218f2cde8d66abd5a7f5a6c4c005f3fa",
            {"main": (146, 4)},
        ),
    },
    "519.lbm_r": {
        32: (
            "e46b3581a0815d83f8f2f2169a541b4593b4c034b764d3499dd292bf8abbdf02",
            {"main": (11, 3)},
        ),
        256: (
            "9900073ada8403632210e352c323389aa1b67908db904736d8989b6d698f73c1",
            {"main": (11, 3)},
        ),
        1024: (
            "9900073ada8403632210e352c323389aa1b67908db904736d8989b6d698f73c1",
            {"main": (11, 3)},
        ),
    },
    "531.deepsjeng_r": {
        32: (
            "51d8c649cf26c8785e3a23bee8a3315a4d9e88dd8a1319162b79ff12485ae8d9",
            {"main": (1, 2), "search": (12, 9)},
        ),
        256: (
            "6f65ec6809356a7a8916fd0bed17108fd084163b9b2ff74463b81f54d0d52c64",
            {"main": (1, 2), "search": (12, 8)},
        ),
        1024: (
            "6f65ec6809356a7a8916fd0bed17108fd084163b9b2ff74463b81f54d0d52c64",
            {"main": (1, 2), "search": (12, 8)},
        ),
    },
    "541.leela_r": {
        32: (
            "69ffb81efaf964da05f5d427e34ee52562b80e3d5e7f2db78b07ea3059b91c89",
            {"main": (34, 5)},
        ),
        256: (
            "238fb24c123bba1a6c01527b084239a1d9f4f0ee1f337d972ce256863e1fcdf3",
            {"main": (112, 5)},
        ),
        1024: (
            "238fb24c123bba1a6c01527b084239a1d9f4f0ee1f337d972ce256863e1fcdf3",
            {"main": (112, 5)},
        ),
    },
    "barnes": {
        32: (
            "0c0ee9ea5d07b3983c07e5216df762d5521c45d8f416803ee400904fe8c53443",
            {"worker": (36, 6)},
        ),
        256: (
            "2deb97a5fd450f9e796a0fac1d054787713c057af85ccc541c22817a10576de2",
            {"worker": (114, 6)},
        ),
        1024: (
            "2deb97a5fd450f9e796a0fac1d054787713c057af85ccc541c22817a10576de2",
            {"worker": (114, 6)},
        ),
    },
    "deep-call": {
        32: (
            "17f059cf33a6a8d9e3d43d49cca1654dcf52639c33b313461a03c24b44dca9ad",
            {
                "f0": (2, 3),
                "f1": (2, 3),
                "f2": (2, 3),
                "f3": (2, 3),
                "f4": (2, 3),
                "f5": (2, 3),
                "f6": (3, 3),
                "main": (2, 4),
            },
        ),
        256: (
            "0e4f18fb04eb8dabb26a6c1b442a00c803e13622bbd58426bab45c982f2e91fa",
            {
                "f0": (2, 3),
                "f1": (2, 3),
                "f2": (2, 3),
                "f3": (2, 3),
                "f4": (2, 3),
                "f5": (2, 3),
                "f6": (3, 3),
                "main": (2, 4),
            },
        ),
        1024: (
            "0e4f18fb04eb8dabb26a6c1b442a00c803e13622bbd58426bab45c982f2e91fa",
            {
                "f0": (2, 3),
                "f1": (2, 3),
                "f2": (2, 3),
                "f3": (2, 3),
                "f4": (2, 3),
                "f5": (2, 3),
                "f6": (3, 3),
                "main": (2, 4),
            },
        ),
    },
    "fmm": {
        32: (
            "0aacbfc2dab91208f83e7e13827484698afa643a3f3de4b0d553066c16d7a410",
            {"worker": (37, 4)},
        ),
        256: (
            "4bc4fbdc64b35d4bda3ef28ae5c85a2dea0fe3d66c7df3aadfe85bc25837584b",
            {"worker": (145, 4)},
        ),
        1024: (
            "4bc4fbdc64b35d4bda3ef28ae5c85a2dea0fe3d66c7df3aadfe85bc25837584b",
            {"worker": (145, 4)},
        ),
    },
    "genome": {
        32: (
            "76ea0d0cc21c1e81a2e2a328068356518bc5817b8b121f7451f30b1dfbf8b24d",
            {"dedup": (15, 3), "main": (15, 4)},
        ),
        256: (
            "55d53d81246be39378cc33933c1cf50543b533d5d66d35c748fd292c86d1a180",
            {"dedup": (57, 3), "main": (39, 4)},
        ),
        1024: (
            "55d53d81246be39378cc33933c1cf50543b533d5d66d35c748fd292c86d1a180",
            {"dedup": (57, 3), "main": (39, 4)},
        ),
    },
    "hot-writeback": {
        32: (
            "1e768e750db0b6ab164005b8c919d23b3fff6cc9ef8c0d5288d43a4c43feedc5",
            {"main": (2, 3)},
        ),
        256: (
            "73438bafe4e1ef3b710b6deb646cdcb98da90838c51a1030bb205cdf429da968",
            {"main": (2, 3)},
        ),
        1024: (
            "73438bafe4e1ef3b710b6deb646cdcb98da90838c51a1030bb205cdf429da968",
            {"main": (2, 3)},
        ),
    },
    "intruder": {
        32: (
            "7f67aae1a8e5d2c04d6c444c7cef76b213f5658c69c713188c208b34401b63e1",
            {"main": (54, 5)},
        ),
        256: (
            "e2c9c09c18ed7b979e480582d0d45c1d8daca1839aafeaf2684ed975e6a9362c",
            {"main": (204, 5)},
        ),
        1024: (
            "e2c9c09c18ed7b979e480582d0d45c1d8daca1839aafeaf2684ed975e6a9362c",
            {"main": (204, 5)},
        ),
    },
    "kv_store": {
        32: (
            "4072f890481013f33f56bb93fee2fa709dd49320023a8b763ed8b0814f45311e",
            {
                "kv_boot": (0, 1),
                "kv_delete": (12, 6),
                "kv_get": (4, 5),
                "kv_put": (10, 6),
                "main": (6, 6),
            },
        ),
        256: (
            "256ef4f2454a343a0594e6cfe4c1dc02d305c154618ad3920d3e15e033de3699",
            {
                "kv_boot": (0, 1),
                "kv_delete": (4, 5),
                "kv_get": (4, 5),
                "kv_put": (27, 6),
                "main": (6, 6),
            },
        ),
        1024: (
            "256ef4f2454a343a0594e6cfe4c1dc02d305c154618ad3920d3e15e033de3699",
            {
                "kv_boot": (0, 1),
                "kv_delete": (4, 5),
                "kv_get": (4, 5),
                "kv_put": (27, 6),
                "main": (6, 6),
            },
        ),
    },
    "labyrinth": {
        32: (
            "5fbee9ea6e7f9a387b1b486fbf572f35e9aa199f300c7e07222c5196671a2f04",
            {"main": (28, 5)},
        ),
        256: (
            "54534cb987a02ea3706222cdca03261ad1d7c45959764d59e6ac321741ee2844",
            {"main": (60, 5)},
        ),
        1024: (
            "54534cb987a02ea3706222cdca03261ad1d7c45959764d59e6ac321741ee2844",
            {"main": (60, 5)},
        ),
    },
    "ocean": {
        32: (
            "107804ae0588f91bd608a884586f8246122adcfe0e1d1e59977ccb6365ae5bd0",
            {"worker": (30, 8)},
        ),
        256: (
            "88ec5c700986ddbdea250f45ee5e34197fc11e74d5330e45d58259db9e961982",
            {"worker": (62, 8)},
        ),
        1024: (
            "88ec5c700986ddbdea250f45ee5e34197fc11e74d5330e45d58259db9e961982",
            {"worker": (62, 8)},
        ),
    },
    "oskernel": {
        32: (
            "95842b8849da89faa39b83d2a0d4dca02a28fbf7f9eef4f6a2e8298181315675",
            {
                "main": (9, 6),
                "sys_open": (1, 2),
                "sys_sched": (1, 2),
                "sys_write": (13, 3),
            },
        ),
        256: (
            "aff8d54a0331feac301aaa06a114a4ba86195b7d2fbadb0cc76e63996bafec29",
            {
                "main": (9, 6),
                "sys_open": (1, 2),
                "sys_sched": (1, 2),
                "sys_write": (35, 3),
            },
        ),
        1024: (
            "aff8d54a0331feac301aaa06a114a4ba86195b7d2fbadb0cc76e63996bafec29",
            {
                "main": (9, 6),
                "sys_open": (1, 2),
                "sys_sched": (1, 2),
                "sys_write": (35, 3),
            },
        ),
    },
    "radiosity": {
        32: (
            "bd671bd21083776e48e5b594d122fde76c39eae84a88ff98756baa4553e98279",
            {"worker": (25, 4)},
        ),
        256: (
            "061926c2aa2eea207c912aa1b8483bdac0f5949a5a2a4fdaa82a59d78daaf5fb",
            {"worker": (67, 4)},
        ),
        1024: (
            "061926c2aa2eea207c912aa1b8483bdac0f5949a5a2a4fdaa82a59d78daaf5fb",
            {"worker": (67, 4)},
        ),
    },
    "radix": {
        32: (
            "ef3a6e21951dd43ccfc35d0a1de0943049e8fe00b78660f68701a7ec029551b3",
            {"worker": (8, 3)},
        ),
        256: (
            "8d697f7e83f96a2f4bddee54350a6bc163ac59e7e646dfab3371cde97cc77d5c",
            {"worker": (8, 3)},
        ),
        1024: (
            "8d697f7e83f96a2f4bddee54350a6bc163ac59e7e646dfab3371cde97cc77d5c",
            {"worker": (8, 3)},
        ),
    },
    "raytrace": {
        32: (
            "25b528223d9f3b372a82c20bc7aaa26d8db2f3a71f173ef8e6d75ad62050690a",
            {"worker": (36, 6)},
        ),
        256: (
            "d2b5b385f91327dfd16550037ef5c33f9a6618d6dbfc8f7821710a528826193e",
            {"worker": (114, 6)},
        ),
        1024: (
            "d2b5b385f91327dfd16550037ef5c33f9a6618d6dbfc8f7821710a528826193e",
            {"worker": (114, 6)},
        ),
    },
    "ssca2": {
        32: (
            "8ac25950385df97c8aabe1a7b9faafd62bbc3061259b03341b359f09ba3b2d5d",
            {"main": (38, 4)},
        ),
        256: (
            "0e3d6cb6c26656f8c7b86c70a1dad16b0abedc43211d2e2d8728be299cb697e7",
            {"main": (146, 4)},
        ),
        1024: (
            "0e3d6cb6c26656f8c7b86c70a1dad16b0abedc43211d2e2d8728be299cb697e7",
            {"main": (146, 4)},
        ),
    },
    "stream-write": {
        32: (
            "2e33e9601392272f4c6dbad112effed9d735eb0e2265fb532b55ff310bbc3782",
            {"main": (2, 3)},
        ),
        256: (
            "dc0765be20df825bce0239e110b421f2bb8aefd78486dcf582282cff64cdd5eb",
            {"main": (2, 3)},
        ),
        1024: (
            "dc0765be20df825bce0239e110b421f2bb8aefd78486dcf582282cff64cdd5eb",
            {"main": (2, 3)},
        ),
    },
    "vacation": {
        32: (
            "2abf96054d1da1e27ce745677b332f203a3af3f2af2978c53cb7bee35aaca8bf",
            {"main": (2, 3), "transact": (47, 6)},
        ),
        256: (
            "c9c52e428cbeb9ad1565e4589ba6373e92ca686046454ec2674d59e93bbbabd8",
            {"main": (2, 3), "transact": (167, 6)},
        ),
        1024: (
            "c9c52e428cbeb9ad1565e4589ba6373e92ca686046454ec2674d59e93bbbabd8",
            {"main": (2, 3), "transact": (167, 6)},
        ),
    },
    "volrend": {
        32: (
            "aabf783765fca146607af37fa6657bf8c5b2910596d195ab0a62f540c2cffdd5",
            {"worker": (37, 4)},
        ),
        256: (
            "74431f4508b8cb5c6655be0bf8d2c2de26cb708ca28ce4700e0522ea5afec189",
            {"worker": (145, 4)},
        ),
        1024: (
            "74431f4508b8cb5c6655be0bf8d2c2de26cb708ca28ce4700e0522ea5afec189",
            {"worker": (145, 4)},
        ),
    },
    "water-nsquared": {
        32: (
            "89dd3561bf80f728a903da4c2500e72b871a29fd121b2980cecdbd17d0908978",
            {"worker": (17, 6)},
        ),
        256: (
            "ec795d7dbe6a2374781bc4dc833dce6f01777797c5586cade3c835d2ada7d72a",
            {"worker": (28, 6)},
        ),
        1024: (
            "ec795d7dbe6a2374781bc4dc833dce6f01777797c5586cade3c835d2ada7d72a",
            {"worker": (28, 6)},
        ),
    },
    "water-spatial": {
        32: (
            "58df9f1f687ce211c90666d365fc40370391d86540ff2fdf9ecf581484a6238e",
            {"worker": (37, 4)},
        ),
        256: (
            "6b2037d904958e17ce40a63df3870b7fd5a15efac1b395013e2a10b813c72d6d",
            {"worker": (145, 4)},
        ),
        1024: (
            "6b2037d904958e17ce40a63df3870b7fd5a15efac1b395013e2a10b813c72d6d",
            {"worker": (145, 4)},
        ),
    },
}


@pytest.mark.parametrize("name", sorted(COMPILE_DIGESTS))
def test_compile_matches_pinned_digest(name):
    module, _ = get_workload(name).build()
    for threshold in THRESHOLDS:
        digest, stats = COMPILE_DIGESTS[name][threshold]
        result = CapriCompiler(OptConfig.licm(threshold)).compile(module)
        got = hashlib.sha256(format_module(result.module).encode()).hexdigest()
        assert got == digest, threshold
        assert {
            func: (s["checkpoints_inserted"], s["regions"])
            for func, s in result.function_stats.items()
        } == stats, threshold
