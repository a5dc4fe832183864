"""Every ``SystemMetrics`` field is pinned, bit for bit.

The timing model is a chain of float sums (retire charges, exposed memory
latency, proxy-pipeline event times, NVM port slots), so an optimisation
of the observed path that reorders or regroups one of them can move a
cycle count in its last bit while every verdict stays the same.  The
digests below pin ``metrics_to_dict`` of whole runs:

* all registry workloads at ``SCALE`` under ``OptConfig.licm`` at
  thresholds 32, 256 and 1024, and as the volatile baseline;
* ``genome`` (one hart) and ``ocean`` (four harts) under every parameter
  set of :mod:`repro.eval.ablations`, naive synchronous persistence, and
  the Table 1 configuration (``SimParams.paper()``).

Regenerate (only for an intended change to the timing model) by running
this file as a script; it prints both tables.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from typing import Dict, List, Tuple

import pytest

from repro.api import metrics_to_dict
from repro.arch.params import PersistMode, SimParams
from repro.arch.system import run_workload
from repro.compiler import CapriCompiler, OptConfig
from repro.workloads import get_workload
from repro.workloads.registry import _REGISTRY

SCALE = 0.05
THRESHOLDS = (32, 256, 1024)
VOLATILE = "volatile"


def _ablation_params() -> Dict[str, Tuple[SimParams, int]]:
    """label -> (params, threshold): the grids of ``repro.eval.ablations``
    and the figures' naive-sync configuration, plus Table 1."""
    scaled = SimParams.scaled()
    tiny = scaled.with_(
        l1_size_bytes=512,
        l2_size_bytes=1024,
        dram_cache_size_bytes=1024,
        nvm_write_parallelism=8,
    )
    grid: Dict[str, Tuple[SimParams, int]] = {}
    for size in (1, 2, 4, 8, 32):
        grid[f"frontend{size}"] = (
            scaled.with_(frontend_entries=size, proxy_xfer_ns=8.0), 256
        )
    for interval in (1.0, 8.0, 16.0, 32.0, 64.0):
        grid[f"xfer{interval}"] = (scaled.with_(proxy_xfer_ns=interval), 256)
    for par in (16, 64, 256, 1024):
        grid[f"nvmpar{par}"] = (scaled.with_(nvm_write_parallelism=par), 256)
    for prevention in (True, False):
        grid[f"prevention{prevention}"] = (
            tiny.with_(stale_read_prevention=prevention), 64
        )
    grid["sync"] = (scaled.with_(persist_mode=PersistMode.SYNC), 256)
    grid["paper"] = (SimParams.paper(), 256)
    return grid


ABLATION_PARAMS = _ablation_params()


@lru_cache(maxsize=None)
def _program(workload: str, config: str):
    """The (module, spawns) pair of one workload, compiled once."""
    module, spawns = get_workload(workload).build(SCALE)
    if config != VOLATILE:
        module = CapriCompiler(OptConfig.licm(int(config))).compile(module).module
    return module, spawns


def metrics_digest(workload: str, config: str, params: SimParams) -> str:
    """sha256 over the canonical JSON of one run's ``SystemMetrics``
    (``json`` writes floats by ``repr``, which round-trips exactly)."""
    module, spawns = _program(workload, config)
    persistence = config != VOLATILE
    metrics, _machine = run_workload(
        module,
        spawns,
        params=params,
        threshold=int(config) if persistence else 256,
        persistence=persistence,
    )
    blob = json.dumps(metrics_to_dict(metrics), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _registry_cases() -> List[Tuple[str, str]]:
    return [
        (name, config)
        for name in sorted(_REGISTRY)
        for config in (*map(str, THRESHOLDS), VOLATILE)
    ]


def _ablation_cases() -> List[Tuple[str, str]]:
    return [
        (name, label) for name in ("genome", "ocean") for label in ABLATION_PARAMS
    ]


#: (workload, "32"|"256"|"1024"|"volatile") -> digest, ``SimParams.scaled()``.
REGISTRY_DIGESTS: Dict[Tuple[str, str], str] = {
    ('505.mcf_r', '32'): 'cf528e4a48110b35bc3958bb7a30e32e0babc9d35a59b5bbf33ed1968a4f87f9',
    ('505.mcf_r', '256'): '6f33c2cf06cfc9c0e0cae18f7d999c991accec910fccd7f7fdfd677d6059d00f',
    ('505.mcf_r', '1024'): '6f33c2cf06cfc9c0e0cae18f7d999c991accec910fccd7f7fdfd677d6059d00f',
    ('505.mcf_r', 'volatile'): '5afe8ac6a43b6feffa0897781ae7aa496981955626d61a280a5c45557b2dfe74',
    ('508.namd_r', '32'): '1e7e4b3a0081b403e1767b97665e33faad70da406b2d16d3de0a1b05c22ff35f',
    ('508.namd_r', '256'): 'eb963022e6ed1ba3f41faeab101d1029b798f031276662a801afc6e2918982cf',
    ('508.namd_r', '1024'): 'eb963022e6ed1ba3f41faeab101d1029b798f031276662a801afc6e2918982cf',
    ('508.namd_r', 'volatile'): '82907129e3e70b0e4d540f1b23aa39d6fb4233377b8e6d2b3153e5b5435a0a05',
    ('519.lbm_r', '32'): '0746bfe80205299ff2f73268f4d88d94d4550f96b0518bbe4e380e9d4da67db7',
    ('519.lbm_r', '256'): '72d319f199582a5881d27c7fcfd1bfe8f93f8f6c9012d7ae633d5b7f9c52f12f',
    ('519.lbm_r', '1024'): '72d319f199582a5881d27c7fcfd1bfe8f93f8f6c9012d7ae633d5b7f9c52f12f',
    ('519.lbm_r', 'volatile'): '841c8feeadd2d51d7619284db456f8665c56ab96c14241a2d2e20cdac0c3a694',
    ('531.deepsjeng_r', '32'): '7bd2b4e77ccfeff054c4bc70bf08ae231eee00715e37038fbdfc3c946e9ceccd',
    ('531.deepsjeng_r', '256'): 'dc9f630994533faebc57d9dfd5213cfbdae1cb40367c2119f04695956c2d2477',
    ('531.deepsjeng_r', '1024'): 'dc9f630994533faebc57d9dfd5213cfbdae1cb40367c2119f04695956c2d2477',
    ('531.deepsjeng_r', 'volatile'): '18c97223281c76866cdf27226a4601fa093354e4fe06fbd6eda5c4af94d49f25',
    ('541.leela_r', '32'): '225d804e5f447be26b0d1fa123b6b4182b396deafa84c3ca4a9be0eb495b3665',
    ('541.leela_r', '256'): 'f099caf6ada7907132abbb9eb5ecf702f47cfb34a2ae51ec3471ebb25dff4e54',
    ('541.leela_r', '1024'): 'f099caf6ada7907132abbb9eb5ecf702f47cfb34a2ae51ec3471ebb25dff4e54',
    ('541.leela_r', 'volatile'): '37c4f9887812904e45726099e4dc5d128a21eba0e43552d983d49e5ab14864fc',
    ('barnes', '32'): '847446e652d70a870fb86595a3c47b5ae8268b62c4af04606f38a62770709317',
    ('barnes', '256'): '3efe181e38fa56f701635dd235343c3fdb8d6a2621734205245ea7c9c9571cc3',
    ('barnes', '1024'): '3efe181e38fa56f701635dd235343c3fdb8d6a2621734205245ea7c9c9571cc3',
    ('barnes', 'volatile'): '9736b504917a5d9d68d089817242ca4295277728635d3580dbe4ae037c82b729',
    ('deep-call', '32'): '1bd696ebda86c9b342e6655d3a3894a31c432555bf279c32bdb6c65f892fcf8a',
    ('deep-call', '256'): '1bd696ebda86c9b342e6655d3a3894a31c432555bf279c32bdb6c65f892fcf8a',
    ('deep-call', '1024'): '1bd696ebda86c9b342e6655d3a3894a31c432555bf279c32bdb6c65f892fcf8a',
    ('deep-call', 'volatile'): 'e05e8af0582cbdf208b733f4c4237ec713bd8b5e02fd5d55aa19419d92ae7d40',
    ('fmm', '32'): '0b64e93653538ea712c41dfaf402e66743ebea48cef674032bef36ad58cdacfe',
    ('fmm', '256'): 'f6408ef478e4f111cce8889abea6b32dd3d6c41c7a542c335f351804a822fc71',
    ('fmm', '1024'): 'f6408ef478e4f111cce8889abea6b32dd3d6c41c7a542c335f351804a822fc71',
    ('fmm', 'volatile'): 'd223cc71e0ce52ddc4240bf99f2fe3d2a8522bf07b8274e8078fefa231f63118',
    ('genome', '32'): '2a4733a0f336422121c26abb6718164cc2486602681c159de37fe6578883b7b9',
    ('genome', '256'): '3fcfa03efce85e4980dce67ea51613fb4c4d3355308711fcb1e7197329bfd523',
    ('genome', '1024'): '3fcfa03efce85e4980dce67ea51613fb4c4d3355308711fcb1e7197329bfd523',
    ('genome', 'volatile'): '575961f8f6c8b1a312bc8d6941ab251caba50437964767ff7d5618170e5d6261',
    ('hot-writeback', '32'): 'ef6970609f4945846ece9b90ed3c668fc517b20b7c77bb49dbb796791b6ab8bb',
    ('hot-writeback', '256'): 'a328696f0dea0ecdf6f5f67211af9780dd586ccd606c02b53ec937068d339f92',
    ('hot-writeback', '1024'): 'a328696f0dea0ecdf6f5f67211af9780dd586ccd606c02b53ec937068d339f92',
    ('hot-writeback', 'volatile'): '597482bff07265147a7c7b0ffca907b455901dbd1b8c02c9df01c7c82f992f77',
    ('intruder', '32'): '80643f07e1f972b03d5af5480319af1e219f30a75d61d96569bdc723aa0d5faa',
    ('intruder', '256'): '1aad5afff5f555eea45529084745c7d3c1ffd8583329f36d5b47bef8089d3db9',
    ('intruder', '1024'): '1aad5afff5f555eea45529084745c7d3c1ffd8583329f36d5b47bef8089d3db9',
    ('intruder', 'volatile'): '5f840235b395e50d75642b280a6fa13981a11b8b1657f8d26d9645f3bdfc4a49',
    ('kv_store', '32'): '55355d73c9a6c71cfa9d9e0b3c48f89a7851bd63a5835a558073295c5148ebea',
    ('kv_store', '256'): '84060f04d31c3cbb114781b199d51db6ec82a46a2d569e3e3404f906eb764eb2',
    ('kv_store', '1024'): '84060f04d31c3cbb114781b199d51db6ec82a46a2d569e3e3404f906eb764eb2',
    ('kv_store', 'volatile'): '05473b438efacee81e6722ffe9a8b7791af686766b38bf9f755fcc0fc566f7ed',
    ('labyrinth', '32'): '687854fa12681106633544f2eec520ed5ba438e29bd1733b6ddaa043970f9ffb',
    ('labyrinth', '256'): '6149d3fad29443b1ec4e9cb746420eca3bdb261cc02246c86cdb0842b7191a8e',
    ('labyrinth', '1024'): '6149d3fad29443b1ec4e9cb746420eca3bdb261cc02246c86cdb0842b7191a8e',
    ('labyrinth', 'volatile'): 'bd515814dcd0fafaa1c96ce1254a116cb2e73ffc63249100d37f31d7d029dc0b',
    ('ocean', '32'): '653f027580a0a10991b92d1f0859cd36d7d52800dda9098961c3b2ad291cba51',
    ('ocean', '256'): 'e03d2976b94b3efff8d8b2668eaba36f25320c7bdc3bbafd7d57b475100bfd4d',
    ('ocean', '1024'): 'e03d2976b94b3efff8d8b2668eaba36f25320c7bdc3bbafd7d57b475100bfd4d',
    ('ocean', 'volatile'): '4c0c62386f9069058687b34afefa367f14abb66226d4a457ecea1c9854dc6d59',
    ('oskernel', '32'): '024ce1a3731ec92a90678ac22ac7239d2d317aceab8fd841e4f802460f6cd61a',
    ('oskernel', '256'): '024ce1a3731ec92a90678ac22ac7239d2d317aceab8fd841e4f802460f6cd61a',
    ('oskernel', '1024'): '024ce1a3731ec92a90678ac22ac7239d2d317aceab8fd841e4f802460f6cd61a',
    ('oskernel', 'volatile'): 'f882c132a4b79e5b649c1bb2c6762a43adfdc2175ed6995ffbb98920c76d7f76',
    ('radiosity', '32'): 'a744605639927839fa406ce6eb61adcab91df4433c07f81b664dbe264f4aec49',
    ('radiosity', '256'): '4a2e7a70eefa150ac3ffbccf08234812fec8491ee7267208d23a2699e60889f5',
    ('radiosity', '1024'): '4a2e7a70eefa150ac3ffbccf08234812fec8491ee7267208d23a2699e60889f5',
    ('radiosity', 'volatile'): 'f6a95fb9f4d72a9b4c10ea720658470f8571942fd6bdefb37a65f541f68d73dd',
    ('radix', '32'): '7aca002ac23aa54d7895f1874ea29099460822c3b2dbfd70a376f31b9253893a',
    ('radix', '256'): 'd1ed6e9eefe9aaa9c2046a5f797df9fa35c690604980e7e703d040d644c82bd6',
    ('radix', '1024'): 'd1ed6e9eefe9aaa9c2046a5f797df9fa35c690604980e7e703d040d644c82bd6',
    ('radix', 'volatile'): 'adb62f58be1544d12ede40248ef73d8faa55dcc86098bc2c614910de24c1fddd',
    ('raytrace', '32'): 'c1fc081adcc6ed86f3a7877564d6899546bec4f965a5cd3f37060030f6bd7472',
    ('raytrace', '256'): '0130a6ecb7dc8872aafd9939428e8ab903d2e779044bd355cd3f1d09a19b327a',
    ('raytrace', '1024'): '0130a6ecb7dc8872aafd9939428e8ab903d2e779044bd355cd3f1d09a19b327a',
    ('raytrace', 'volatile'): 'd07ef9d203b052ee681f5f42417f9e772cd481947c475c54745af0bd073d02a4',
    ('ssca2', '32'): 'c29a89a974a7f80895bc958597f18c270024c33c72e94e28f988090de7e065fd',
    ('ssca2', '256'): '146ee36002f3193be53a9dbb7bf0fbbbee4ec0246bbf2841f7641b51434dea2f',
    ('ssca2', '1024'): '146ee36002f3193be53a9dbb7bf0fbbbee4ec0246bbf2841f7641b51434dea2f',
    ('ssca2', 'volatile'): 'ac8fd2608110ce23a50245ce2abba5088604cc65c7d93dc042debd48077649f6',
    ('stream-write', '32'): '03a0f50eb24a96c52d437ddc6154b3bf237a8b024e1463292f598306722de8c8',
    ('stream-write', '256'): 'eaa9aad7275e68611df270cc7af07a09a40f1b26b234bfa46e0d6009274a3b8b',
    ('stream-write', '1024'): 'eaa9aad7275e68611df270cc7af07a09a40f1b26b234bfa46e0d6009274a3b8b',
    ('stream-write', 'volatile'): '8a660da060d271d6ee1a2bff726e252ad4d17852d07f8068bf684fd596c831d1',
    ('vacation', '32'): 'c374876468599768189e3d0c3ee0b9e631fdd1604c58751210f4f9148a451928',
    ('vacation', '256'): '3d8a80d416ab8c4cc7e695577c80878190be2a71c3b9b192b9b7cefff4e3dd8e',
    ('vacation', '1024'): '3d8a80d416ab8c4cc7e695577c80878190be2a71c3b9b192b9b7cefff4e3dd8e',
    ('vacation', 'volatile'): '83c9366b3cc26dc2d9047ddbedd5d410c9895db926c0cccbc52183b86973de70',
    ('volrend', '32'): 'caab7a6f4b28c6d3ddd63bd91b580e574d02229bb20a54dd386e21bae41e9c96',
    ('volrend', '256'): '9a88a431a8690ea7aa399e11815a37d1eae53a5cae80023cb2f38c8452ab5de7',
    ('volrend', '1024'): '9a88a431a8690ea7aa399e11815a37d1eae53a5cae80023cb2f38c8452ab5de7',
    ('volrend', 'volatile'): 'd63339f2ebc74aacceccf07cd17d9c2425d5b47e25dcea6d02bd36ff811c3dd7',
    ('water-nsquared', '32'): '0360bddd77b29d594185a39ad6131893d18424c671d7e67a37367633c2a6eff7',
    ('water-nsquared', '256'): 'c03e598eed4cb9aa80078a74a6ec55227e624260796dc0604c7664ed3e8ebdea',
    ('water-nsquared', '1024'): 'c03e598eed4cb9aa80078a74a6ec55227e624260796dc0604c7664ed3e8ebdea',
    ('water-nsquared', 'volatile'): 'cc23940542a6dd81f6625c3623fc1d245e27f6d28a5b2975fc095a845a68b89c',
    ('water-spatial', '32'): '0e7d556484705c5e132b9884a6c2fec636b08bf7292f2cd9f43d1776b3748941',
    ('water-spatial', '256'): 'e20400b76b04c43cc383dc0e1b4b77152b80b0e55947a9ef883c14bc4759d102',
    ('water-spatial', '1024'): 'e20400b76b04c43cc383dc0e1b4b77152b80b0e55947a9ef883c14bc4759d102',
    ('water-spatial', 'volatile'): '6c70d915ec3e5d916363e83928925ce03e4d0075fc0af5562f0d8365c4667fa4',
}

#: (workload, parameter-set label) -> digest.
ABLATION_DIGESTS: Dict[Tuple[str, str], str] = {
    ('genome', 'frontend1'): 'a0442c19bf90ecc1f980d66ca669ff387465f0a02bbca21a877ebb384313df87',
    ('genome', 'frontend2'): 'd809627fc8289dbb53ed61a900072873e8fd29229d44aa3a5ba2967bf0dc8ede',
    ('genome', 'frontend4'): 'd809627fc8289dbb53ed61a900072873e8fd29229d44aa3a5ba2967bf0dc8ede',
    ('genome', 'frontend8'): 'd809627fc8289dbb53ed61a900072873e8fd29229d44aa3a5ba2967bf0dc8ede',
    ('genome', 'frontend32'): 'd809627fc8289dbb53ed61a900072873e8fd29229d44aa3a5ba2967bf0dc8ede',
    ('genome', 'xfer1.0'): '3fcfa03efce85e4980dce67ea51613fb4c4d3355308711fcb1e7197329bfd523',
    ('genome', 'xfer8.0'): 'd809627fc8289dbb53ed61a900072873e8fd29229d44aa3a5ba2967bf0dc8ede',
    ('genome', 'xfer16.0'): '815cbfd16bfd343a486916b9620fe80632d7972bae1618b373f8f263846878dc',
    ('genome', 'xfer32.0'): 'c2ac0766ea632d45df9d6645600f81696c31579c2d6cbc1adefd5357de6524a1',
    ('genome', 'xfer64.0'): '1ace816c47a24cab3e5e4b1d1932327ce914d2b95ef5526cbfd4001b44cd9fb0',
    ('genome', 'nvmpar16'): 'a39cfba75e8edcbe9a720e4c697baf2c73cab04f96eab7d9b2c694526251def6',
    ('genome', 'nvmpar64'): '1a23b0b5a9989cb91c8c5bf90bb74e991addb4f8e95ae6821fdf1017dcb4f8a4',
    ('genome', 'nvmpar256'): '3fcfa03efce85e4980dce67ea51613fb4c4d3355308711fcb1e7197329bfd523',
    ('genome', 'nvmpar1024'): '170b95a146ffeb010d3bdf2571eabeeed8c7ef75cf93237ac71ac41517f09cc7',
    ('genome', 'preventionTrue'): 'e49b9274fbba0c8f91700892abaf73fcbe3675264e1e480fb0d3d1de2fda25e0',
    ('genome', 'preventionFalse'): 'e49b9274fbba0c8f91700892abaf73fcbe3675264e1e480fb0d3d1de2fda25e0',
    ('genome', 'sync'): 'c60cb825cc02e8c35d94a24f09e5114598c0f7524dfda444bcb9e69c580bb5dc',
    ('genome', 'paper'): '3fcfa03efce85e4980dce67ea51613fb4c4d3355308711fcb1e7197329bfd523',
    ('ocean', 'frontend1'): 'bc860beef5402c51c95f3acc899b3a1164e9d3e156a771a63ba0dec9e48202cd',
    ('ocean', 'frontend2'): '0a3b43da118a3bba75f93f2a9503eed21920be217d2bcf939e16a61f755f8a4e',
    ('ocean', 'frontend4'): 'a7faddc274abea8abe4c5e1b12f7c10e6f1813c9126a893b8987d7f8fcc4b2d2',
    ('ocean', 'frontend8'): '5246dd112d19cf7edcf0fe83e07a76b4e3507e88c63704f6a9fe3692a9853ff3',
    ('ocean', 'frontend32'): 'e793f343713f39763483869680732ef36d2d8c4fd3bd68422476a584701d2ab1',
    ('ocean', 'xfer1.0'): 'e03d2976b94b3efff8d8b2668eaba36f25320c7bdc3bbafd7d57b475100bfd4d',
    ('ocean', 'xfer8.0'): 'e793f343713f39763483869680732ef36d2d8c4fd3bd68422476a584701d2ab1',
    ('ocean', 'xfer16.0'): '996666cf13db36fdaefa2ad49d7d5f9a892f63f4b65ceedbfbc9069ffdea2d40',
    ('ocean', 'xfer32.0'): '8fb661774f51a19530bbd06468602b6f9653c564f14b054d52f84198216d828f',
    ('ocean', 'xfer64.0'): 'a4bf11f67e7e6a5bdb91d59dcc7172fa6877ebe38678452f764c7ac59ca011df',
    ('ocean', 'nvmpar16'): 'd648885d8c0e217fd33fa3672fa9b240f2966f1292e19310bb2ad284f878e32e',
    ('ocean', 'nvmpar64'): 'fc001e880802325f96bbd89209a9c227d2fdb8b14821d066737abcc0364db1fc',
    ('ocean', 'nvmpar256'): 'e03d2976b94b3efff8d8b2668eaba36f25320c7bdc3bbafd7d57b475100bfd4d',
    ('ocean', 'nvmpar1024'): '7d314a2d342942789338845d468c96c0789c07548fc3961336be1bbe4c9bd1d9',
    ('ocean', 'preventionTrue'): '6fd85461850129104b3b0b08f220448dced5128f93fc76af9b25b50ad66100f0',
    ('ocean', 'preventionFalse'): 'a42ed16615c99768429726475f5e035fb5988f17105517a89a9060fdfd9e99af',
    ('ocean', 'sync'): 'd322d8ad1031fa3934a237056a3e4c4bc29cdfa897f2993a4994241e3f24aa97',
    ('ocean', 'paper'): 'e03d2976b94b3efff8d8b2668eaba36f25320c7bdc3bbafd7d57b475100bfd4d',
}


@pytest.mark.parametrize("workload,config", _registry_cases())
def test_registry_metrics_pinned(workload, config):
    digest = metrics_digest(workload, config, SimParams.scaled())
    assert digest == REGISTRY_DIGESTS[(workload, config)]


@pytest.mark.parametrize("workload,label", _ablation_cases())
def test_ablation_metrics_pinned(workload, label):
    params, threshold = ABLATION_PARAMS[label]
    digest = metrics_digest(workload, str(threshold), params)
    assert digest == ABLATION_DIGESTS[(workload, label)]


def test_every_registry_workload_is_pinned():
    assert {w for w, _c in REGISTRY_DIGESTS} == set(_REGISTRY)
    assert len(_REGISTRY) == 24


if __name__ == "__main__":
    print("REGISTRY_DIGESTS = {")
    for workload, config in _registry_cases():
        digest = metrics_digest(workload, config, SimParams.scaled())
        print(f"    ({workload!r}, {config!r}): {digest!r},")
    print("}")
    print("ABLATION_DIGESTS = {")
    for workload, label in _ablation_cases():
        params, threshold = ABLATION_PARAMS[label]
        digest = metrics_digest(workload, str(threshold), params)
        print(f"    ({workload!r}, {label!r}): {digest!r},")
    print("}")
