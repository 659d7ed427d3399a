"""Golden digests of compiled output for the reference corpus, and of
ncrank results on fixed grids.

Each corpus row holds the SHA-256 of the compiled pencil file (with its
realize trailer) over the default field, and of the circuit file of the
variable-reduced circuit at h = inversion height.  The digests were
recorded before the circuit walkers were made iterative; any change in
node order, layer layout or pencil placement shows here."""

import hashlib
import os
import random

import pytest

from ncrat.circuit import (classify, dump_circuit, parse_expr, to_idrrsc,
                           variable_reduction)
from ncrat.field import dump_tuple, prime_field
from ncrat.pencil import compile_idrrsc, dump_pencil
from ncrat.rank import RankParams, make_skew_matrix, ncrank_skew, read_skew_file
from ncrat.rit import compile_circuit, corpus

F = prime_field()
HIGMAN = os.path.join(os.path.dirname(__file__), "..", "data", "higman.skm")

GOLDEN = (
    ("var", "a6cd790ed47e6b1eb08f404eb30442c4058ebe5a995c4c25035954aa78183d3f",
     "dc11fcb0f0dbc7c601f22e7d8da8e8a37d524604db8c7aa93f2c4e89d3daae43"),
    ("sum", "10101d7bb38cb03f9679ac2e0ef3feb57eb6ac5489da4c9ba1e62b9331a76ad5",
     "6c7f612b49e5a44034ecbd143f0d577eb6864861da1ddb13b23fb3f3a4714190"),
    ("product", "e6e415a0912ad6ca280dec91c3b8a06532c7d88f7f5157042756b7b970f43fc3",
     "054138e9a13d1a6f3b9ed0f9186db62e2be2dfedd7e613949ac1db0d9f5b559c"),
    ("commutator", "5f82f7d0bdbf102c5b3ff1273d133941451d8c5d7e377dd4ccbbb22ff7970c59",
     "1676c40eece926a441acc5c5de2ff93b3c9419acddd102f5afd148deb2e12d8a"),
    ("inverse", "113f38585be5f3ae1d497ad3f6dc678f6f9cee04d5cabfc21f9a62c0bb4b8558",
     "e912310af963ed030f26051bc3d30f6d7b19c369acc02429f40b26172f8bde41"),
    ("inverse-sum", "8e1655be370f21509e54969a4c8a307eb0403c1f2d28d9f88893fd493c87eb7e",
     "f709a8265d8dbf317ed188187e9e7447ebba0ed47fc7800f38a91949e99622b9"),
    ("commutator-inverse", "66e41699c15a7c4015d270ee688deeb6af58a34593121dd89adacf8b08ab2177",
     "e4e82879f14da6dedbb0b3ecd31f91862c5fecaeda44f070c83090830152500f"),
    ("sandwich", "13a080346ec8e478fa5a3a4f1157812723ef332229ae5536a9ebfee244ac698a",
     "d8049aea986064bc0a1e04f35df831e1f224c83d7c652f444583981e22e0e39f"),
    ("resolvent-difference", "79a600449fcb415bcdcb996a20b546d3513324efd80374f901ce4fea76b8992d",
     "8683e1f6ecc0b24b0b9fcd3f34d9c4ab39fce80731195da7cf8c1999be1e9e73"),
    ("double-inverse", "24b83e71e28329b840bd07bf452a16d90244b6b6686c0f0a56799193cbbe7586",
     "d7f428161cd96348b45c5acbbe38e8adac78dcdc32ecbc8b1dd748e70a1a4d5f"),
    ("nested-sum-inverse", "6dba7198bdd60fc22a505a9e65059db870391b08d89874250e2f55e9843c3409",
     "4e23f38ad3e2c978224941bad10f2ca4e6edfbfc016f573db54b6228264fdba4"),
    ("hua-first-term", "bb2371e6e05cbb2a40d21777c326837f6fc7856544a73117c806ac3ce26ade71",
     "ad1870dfa99137b10e86c67c4237c31cf2772d072cf67fe59a490aed974c1141"),
    ("cyclic-difference", "5061cbc7d0970f4859f8ac3bbc145a73606e286ea8f33715f49d588b5cdf6ba8",
     "489ae3e6731daeecb67ca5287ff69c8ab97a4c6fb754902d3fe95f6eebc8a41e"),
    ("conjugate", "0b9574486105a8e1cdff579048de641f2a96c42836949d89af693f0f2c543f83",
     "7d5709b5b95f9febdd8a3f0e1ca2c3c1f5238f10da371920063cd5d573056dd4"),
    ("difference", "5d52e1cf577def7017db9282e0ff5ed21d94fdf7a8929fc7138c577fb3820133",
     "3ca1aa7fb8a498f9b502ac4c115540269a90afe86b87b51aae199ee98b39474a"),
    ("constant", "b5fe43ed3745ad88a48928f7faa39e3db9b7fcecc16e826832d68e24be71b457",
     "3f3565102a44c13f698f4d0037b89150358d840f85fd627b2ba1f5f6fc3bf3f4"),
    ("commutator-inverse-times", "6d5e12183e0c03113b6797d6dd8ae69f1e192a733136050715a1f6a31c030cf6",
     "9cbf2d6aca7ce3d1f0d340ff31cef8d132e50bfecaed5f5a2d89cf620083e6c7"),
    ("harmonic-pair", "e319cf21810f234d34a5256ca54ba93e1fc5843c3663efa9b2cecf07b8e281fd",
     "ea425ebeb1741c0ea25082d774d97bd7955c5bd649fa028cd27170f731b887b5"),
    ("affine-square", "81003c4bafbfe227cba182db95f888081851d30fbc4200d040e1702df0295ead",
     "07f4723515076030745113de77fc9904889a9066b80f8487d0b577fef0470f8e"),
    ("cancelling-product", "da34bd310b0317bbc0ca373c754f8affa38a41063dab0277daffcf44b2a374d3",
     "a6fba84cba7829dd4806b3b5715ab31f42a50d08c4f35038598bc9a25baba4de"),
    ("postfix-inverse", "18cfe5480a57d052e176dcf8b74b350652b9aa1d1a6146af0d17a2cb5954d029",
     "364d627165b4d68b5fe41925a8df7eb964e6b1d93cd5c7ce8294fdd3ef96ea2d"),
    ("quadratic-shift", "b4db11f99643e4aa95993cb8cff5e6abbeda5023eb78d396da7b7786f9d4400b",
     "e0f68b27aaed89b73329dd2471d5d70f144056cb3ba27a2c1bdb92e911a9eab1"),
    ("swap-inverses", "81a0c161ad363d67a1c2ad9874c187384016c91d15d11ee3ec4eebe7f8f1ec97",
     "68975fe9fef9c34f8a16932e9c10d22b4b9da59b19f5580d9540f5b723dc4e7f"),
    ("affine", "a41d2f7ace7700fec05959ef30f6924d4a2ca95cbe59b6747c3575064fc726a5",
     "45f13bcfa359a4e4d43d1308a74dc391b0326d95f04501ec78d6eebdccc56dbf"),
    ("hua", "4544349e8d506f7c4a6b8e56bcc2f922c835a1a268b3a33c0881e3ab405d1b2d",
     "32bfec75a92eab59242051bf2d55d363ed85cd824119b97b8ea664c1c6492fb6"),
    ("hua-swapped", "5b35ca31ae0199c4065ccd832a6c74e8514c65923d454ffcab584f778eafe8d8",
     "518769e973ceae6b607be2b515c35bfa717262a62f14c30f20478dfb6fd0f2f6"),
    ("self-difference", "a8ca661db5601979e052145e179b965fdd90f445b75176506d782e76bcd47be5",
     "6489ad9043dc5602b7bb89dd3acd1301548be42dbdc055b32d68fb93e5b52c1a"),
    ("product-difference", "710046340c6f6f66aed508753323c489be7649d1ac17ae271824635ed261020b",
     "3064f2b5eb6f0a41331f5844581b376966e7ea871a66cd08257f87379f9bdb5b"),
    ("inverse-difference", "d54d3e5bfda30f999b43397af2c983bda62bfd98551fbb3a4a0848c6761a6d9e",
     "a10931e486767ef694f67571939bfbda7f2d2155f5028668c7cc9f9bba9409df"),
    ("one-minus-unit", "b64ce142ca6d1b19f0e144853e987f8d21f6cb74caaea0bd8eb85ade83558e84",
     "52aa087aabea1b92c046b07997fb55124d503cfc44451a2a4ea4f827063e2b75"),
    ("double-inverse-minus", "92801305c20d6eb23fd0ed1b190dc7d59757473e7d1a952ec6b7eec34b473eae",
     "0f34b82150f7b3cacf7e94b18640f45a15ec4fa642543fd21442ea61cf39e693"),
    ("unit-of-sum", "18ba3d4c22a0bf7797918181b82f89f9dd96a86f3836f580bdb8deb1272d8d13",
     "d70cdf97548e6bc8343d1fa9513d8d9ad1f4f98b11e3ba53f5cb45d3adc6a9e7"),
    ("zero", "08952bed753048e3d6846c309faa3240b229d1725c9c3871332d4152682902fe",
     "6c4e85120702a75c724c492e8db003e13998db0df0ff325159302bd8a395cad2"),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_table_covers_the_corpus():
    assert [name for name, _, _ in corpus()] == [name for name, _, _ in GOLDEN]
    assert len(GOLDEN) == 33


@pytest.mark.parametrize("name,c", [(name, c) for name, c, _ in corpus()])
def test_compiled_output_is_unchanged(name, c):
    golden = {row[0]: row[1:] for row in GOLDEN}
    entry = compile_circuit(c, F)
    reduced = variable_reduction(c, classify(c).height)
    assert (_sha(dump_pencil(entry.pencil, (entry.row, entry.col))),
            _sha(dump_circuit(reduced))) == golden[name]


# -- ncrank results --------------------------------------------------------------
#
# SHA-256 of (r, d, certificate, per_dim, anomalies, witness file) from
# ncrank_skew on fixed grids, recorded with the pivot-by-pivot rank kernel.
# The rank of every sampled evaluation, and so the first tuple reaching the
# maximum, must not depend on how the kernel eliminates or batches.

SKEW3 = (("0", "x1", "x2"), ("0 - x1", "0", "x3"), ("0 - x2", "0 - x3", "0"))


def _uv_grid(seed: int, m: int, r: int):
    """m x m grid of sum_t U[i][t] * V[t][j] over seeded affine forms in
    x1..x3, a rank-r product of an m x r and an r x m grid."""
    rng = random.Random(seed)

    def form():
        return "(" + " + ".join([str(rng.randrange(1, 9))] +
                                [f"{rng.randrange(1, 9)}*x{i}" for i in (1, 2, 3)
                                 if rng.random() < 0.7]) + ")"

    U = [[form() for _ in range(r)] for _ in range(m)]
    V = [[form() for _ in range(m)] for _ in range(r)]
    return tuple(tuple(" + ".join(f"{U[i][t]}*{V[t][j]}" for t in range(r))
                       for j in range(m)) for i in range(m))


def _skew_of(grid):
    return make_skew_matrix(
        [[None if src == "0" else compile_idrrsc(to_idrrsc(parse_expr(src)), F)
          for src in row] for row in grid], F)


NCRANK_GOLDEN = (
    ("higman", None, 5,
     "a8346a57cb55070492377c08d5e7ca8bdf36444d553f1341524872bc6b0a3ae4"),
    ("skew3", SKEW3, 11,
     "e566977895981991dea20808242f79630963450558c85572f93a0a7307717223"),
    ("uv-2x1", _uv_grid(1, 2, 1), 21,
     "0253fe4d9dd5ec0adcef85a73fa56988926f1136d395e540f5e3227521a52fbe"),
    ("uv-3x2", _uv_grid(2, 3, 2), 31,
     "ffd87e2fb9e088089c53d45e536903cb33f80901b3ba17c2252320efd43f338d"),
    ("uv-3x1", _uv_grid(3, 3, 1), 41,
     "286ead00579331b4eea179e46c538c2fc5936b9eb62437d6ae735ee3f2af8763"),
)


@pytest.mark.parametrize("name,grid,seed,digest", NCRANK_GOLDEN)
def test_ncrank_result_is_unchanged(name, grid, seed, digest):
    M = read_skew_file(HIGMAN, F) if grid is None else _skew_of(grid)
    res = ncrank_skew(M, RankParams(trials=8, seed=seed))
    text = repr((res.r, res.d, res.certificate, res.per_dim, res.anomalies,
                 dump_tuple(res.witness)))
    assert _sha(text) == digest
