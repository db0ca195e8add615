"""The spec verbs `embed`, `verify --spec` and `recover --spec` end to end:
pinned stdout bytes on seeded specs, and embeddings whose S is huge."""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from smalg import jsonio
from smalg.cli import main
from smalg.cocycle import coboundary
from smalg.jordan import CentralIdempotent, JordanSpec
from smalg.quasiorder import QuasiOrder, components

from lemmas import upper_triangular

pytestmark = pytest.mark.kernel  # stdout is pinned per kernel, by the name OpenBLAS reports

SHAPES = ("full", "upper", "block4", "sum2")


def shape_order(n, shape):
    member = {
        "full": lambda i, j: True,
        "upper": lambda i, j: i <= j,
        "block4": lambda i, j: (i - 1) // 4 <= (j - 1) // 4,
        "sum2": lambda i, j: (i <= n // 2) == (j <= n // 2),
    }[shape]
    return QuasiOrder(n, frozenset((i, j) for i in range(1, n + 1)
                                   for j in range(1, n + 1) if member(i, j)))


def seeded_spec(n, shape):
    """A dense S near 2I, a coboundary g and a random central idempotent,
    drawn from a generator seeded by (n, shape)."""
    rng = np.random.default_rng([n, SHAPES.index(shape)])
    rho = shape_order(n, shape)
    S = 2 * np.eye(n) + (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    s = np.exp(rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(0.0, 2 * np.pi, n))
    g = coboundary(rho, {i: s[i - 1] for i in range(1, n + 1)})
    bits = [0] * n
    for block in components(rho).blocks:
        bit = int(rng.integers(0, 2))
        for i in block:
            bits[i - 1] = bit
    return JordanSpec(rho, S, g, CentralIdempotent(tuple(bits)))


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(jsonio.dump_json(jsonio.jordan_spec_to_dict(spec)))
    return str(path)


VERBS = {
    "embed": lambda spec: ["embed", spec],
    "embed-pretty": lambda spec: ["embed", spec, "--pretty"],
    "verify": lambda spec: ["verify", "--spec", spec, "--samples", "20"],
    "recover": lambda spec: ["recover", "--spec", spec],
}

# sha256 of each verb's stdout on seeded_spec(n, shape); any change to a byte
# of these reports shows here.  The verify digests hold under every OpenBLAS
# kernel.  The embed and recover bytes follow the rounding of the embedding's
# matmuls, so they are pinned per kernel, by the name that numpy's OpenBLAS
# reports (openblas_kernel).  The SkylakeX (AVX-512) digests were recorded
# before the entry serializer, the cocycle check and the embedding's input
# check were vectorized; the others under OPENBLAS_CORETYPE=Haswell,
# Sandybridge, Prescott and Nehalem; numpy 2.4 bundles OpenBLAS 0.3.31, which
# reports a forced Prescott as Katmai and a forced Zen as Haswell, and runs
# the Nehalem kernel on Atom, Barcelona and Bobcat too.  The recover digests
# were re-recorded on every kernel when recovery began to read S from the
# images of the diagonal units instead of an eigendecomposition, and again
# when it began to read S^-1 and g from the unit images without conjugating
# them by S (g and the two round-trip errors moved).
PINNED_VERIFY = {
    "verify full8": "6999d6aeaa7b288227b7559622181780c6dde5ef48dec924e1123b9a217256a6",
    "verify upper8": "951f64885a238b8b54fdcb2ca1699269e323945ee0282988935006b7f5783bbb",
    "verify block48": "1616b7ee63a64729be2cec4617e0d79a3ecb26c550f92f541a9bed1e137c4189",
    "verify sum28": "9fe3dc58fbf160ffed40ae1a23e4e973d40541e396383cd1805e939b49a690e0",
    "verify full16": "04ff454cab279b5c338280238c8cd504ced3eedf788bbf3f1fa243ae38d17dec",
    "verify upper16": "3092ca1c1e1db144193e81b3ce7b4974246c4aecfdb3a8e9fe06cea7ba4b5678",
    "verify block416": "b5def30910e5b94bd00ca95e0cd99510add0bd5259ee0728cc371a16b1ae80c0",
    "verify sum216": "04ff454cab279b5c338280238c8cd504ced3eedf788bbf3f1fa243ae38d17dec",
}

PINNED_STDOUT = {
    "SkylakeX": {
        "embed full8": "b0e553da12b71f594fe8a2150f4ac8bfccc3bda57848e65bb25becbd89c18186",
        "embed-pretty full8": "0aa36cf9317d54b34ba36ce739ecc4465a6882e728a656a3c799dcde507414d2",
        "recover full8": "5a84b094c6093b1240993816533fe51caf3819f1d93cad0da5be0d34b051d1ff",
        "embed upper8": "8b38c6811158c512c18f263d61b60d389a84ca61ea2d575dfb735d7c47c88d48",
        "embed-pretty upper8": "d22925f83af454316d5244287f4df6a230dc039ce2ddd106f687811eb1fdc701",
        "recover upper8": "90e6f316222af6955ff4db38330c90752f2de7e586e2336d3cc8d0d3bc823c46",
        "embed block48": "72d5791365be77d7d83b7eddf031ad7fc818f0d11038ca1b5c341f5ddded8a73",
        "embed-pretty block48": "17595963e2cb4fa50f64483efd2be8d28b27a2c7b442f9cfa07e8e2c5c4a0962",
        "recover block48": "e38c0297ee9d8a91db2a99521edb2e450a6b1cabe9ae7f8b428abcedae982792",
        "embed sum28": "f605aed03317cb817d2c696b2f2eed2723f180182d0c2d1085a83671573bdffc",
        "embed-pretty sum28": "d67d27ad673446309c3cdbacfa6f7200bd99d88a1f172a2ec89688ac2f4abddd",
        "recover sum28": "3c51f6ccff5e18f872f4c4fcc94777cf7140f86dd1931dca25df83e039c11625",
        "embed full16": "c0d7d0c0df3e149c06e13186ef552546ecdef4c7c4542728007713ea310c6769",
        "embed-pretty full16": "55cecb7e013f7543cb1ae0b3bbf4c8d2b9a9ecd27a8beab8feb250e7cec473f6",
        "recover full16": "561aea877e41a6035fc51a9b5e66ba2c1551f12af2147cd7a0875a9c3ee5c307",
        "embed upper16": "dde99afc0e769cefaa303070b68828f2d5fb0fda1d47179866c27e4318cc4469",
        "embed-pretty upper16": "15348938c49f5eb9af5da635752b9b31e80b75935a056e3a2c07942896628531",
        "recover upper16": "de8c7e27615229c17b625971b05e1b1d74454781ca4d0f03abbf4344758fa2ef",
        "embed block416": "b712fccd59f6fa43d18e9e3bc37d66f115e6dc2ec16f8c95813400e68912dd36",
        "embed-pretty block416": "ca668faa86695cc42b9a17b4e47b38894adc471c61a7c31800af876463aead81",
        "recover block416": "e67a14995e78ac251074cb3d5986b524cb8955de896f17ed56824986d6061e87",
        "embed sum216": "27a2a139f0075d3d52ae1ea1c33b35fb4dda20b9de2880682536e0f8cc02f43c",
        "embed-pretty sum216": "a3a36d545274975de26b0363665b027c4e486341c3cb4d6ec16fbff337e76125",
        "recover sum216": "a195bcd50c1ed4413c9e45f72f48f37542bbd840e5f0b5bdfa40b99231f61b7f",
    },
    "Haswell": {
        "embed full8": "d63fc966d13ef2780214ca9dc50eb21711052596dcb5c4943f94da64157e26b5",
        "embed-pretty full8": "a9e2704e3159bd3c88f0cc84c12f54388830e0eade6812fcf2c0ff8fc614877d",
        "recover full8": "c2369c5c5b23138ab9bc3d8a13571e82935d23393397eb5cb39989515d244ad3",
        "embed upper8": "29c962ade4b1015291b9e233e9579c24a3120d2d32b420c45a5eda174ecc9521",
        "embed-pretty upper8": "038afcbb5bfeb88255ce47b34215cd94c1ee5c73107c54fe7f7bf4c0594eab5f",
        "recover upper8": "1787e24d46efcabd70972e7311c4f964d499465c7604bb1f39e0de9643e52fb7",
        "embed block48": "ebd011346a4a47fff1577a73bd4f98acce71569e0c73c6b19df3308695d540ba",
        "embed-pretty block48": "984d44d9c00c3c2f9826352845fea47717c5bdca5520cedf79569639f7c9f730",
        "recover block48": "33c61cfc29e5bd26795f6a9d15debb6586bdf946e25559f698a10092f57b5ffd",
        "embed sum28": "58080cab97477d5a8a887101ef8906ef1bce62f4c4fce16dc75d8b3478c23775",
        "embed-pretty sum28": "a2874bdeed3f209f7e02aec9cd5014b8773d13cc38047571e80aa9dbca732c48",
        "recover sum28": "a85460034e899c2d81208163d75d523d1c53159b76d9d431e7d5d2449ecc08e3",
        "embed full16": "ce3a7b60bc822cbbb8fc3089e5515bb66c119f24b31369605287f8481e6140b0",
        "embed-pretty full16": "5f3fc69d6cc173b29954e594dcf0c399e89f76d334825503c561207202e99b91",
        "recover full16": "a2a210d8e32eefb87e9b85c5254a14ae6961308d4006a5673e530448bb6abcc4",
        "embed upper16": "5ad60d2b2356c85ab20e41ba126c4c02e546a60ed9820184f643d4bbabeaae89",
        "embed-pretty upper16": "07dac1b91c13ce08bbfc937d5f4afa08c24cc450d254763e2d770cb3267299e5",
        "recover upper16": "eb281de0db7bbc1ba63e97eeac8f0fc4101e73a23bf5bede2261eb7daa6ff202",
        "embed block416": "3127c7d0b7e3ea3de3580f25131948241f6a035b80996c44e91ab60e50361669",
        "embed-pretty block416": "242077694d03a95fe297616a6ef74fd79555bfee76cbaa47cd190fad3edd819f",
        "recover block416": "e60ddb3aaa1229006689151969547e0710e1bc0a93f0f95c9e14e70cf5a4f843",
        "embed sum216": "07b90aac59c7a747f568de4c02ec130c9512d04ff62040c6c514f4e2ebaff2a8",
        "embed-pretty sum216": "aaefcf9da10ca8f8b2e8137f692411aa70140f18a51695a74a77d276171181aa",
        "recover sum216": "7ca0ddbf24a2a3bd3e8ec008b95a90a2743a4c977db3a807d397a6bbac9d36e7",
    },
    "Sandybridge": {
        "embed full8": "7523e75f4db086ee5ad7a9e8d2467c2821671870e064cc79ec623956507f8d31",
        "embed-pretty full8": "4ef4bf615b62e2fffaacffd10c813138220d9fb9b77f81307de8122703bc4621",
        "recover full8": "545f58054b44bcd86de58627d8b8bd5ffeccf9194187a91638b55379aeba43ee",
        "embed upper8": "cbda92547d66ad69e56a683f4ec3a7e3b504ea391738fc6d3e60158dce9da1cf",
        "embed-pretty upper8": "c1fd08e30574fad305eadedd13a83965af34e3fe30a13e337a879bce637c7885",
        "recover upper8": "22f9fbc79fe1de217f94655d0df0dd9c3e0b325e68f1f53980ad4b923e1bb161",
        "embed block48": "d9e53471e60911efa47970669f4f0123d5c19028451a77aa37ab7406bf000185",
        "embed-pretty block48": "370d557711a91064bc67f8e3b198977c6a84e095e9187c3e0d47c5aeaf9967c3",
        "recover block48": "c57ca55cae3d2981d3d1968b79da9b59487752115235debc77da331705bb3de9",
        "embed sum28": "18454be927df416fa1d2f349ae2a1872a4175f22b9915984486c76599df298bd",
        "embed-pretty sum28": "872a25550ecb372e92ca50243465b51b4aeb43be16b39211c2e0c0403f52ee63",
        "recover sum28": "90800cf7cfe486f438f2cd9b6327d342ce0054a3c563b2a9c5e0aaf2bd0c2b13",
        "embed full16": "ea53029a5d5df3f12112f4591ea1073c78646f0b0dd4b5442652763d7a3adb5d",
        "embed-pretty full16": "2c3ea518b96bd818fd62c980903766636c3e5a4c5b1160d459ed6504b6c3d534",
        "recover full16": "d3d0b87f0fc7656d9ad0a5569161b20b44f8f11be5319c1bf8e3074245beca95",
        "embed upper16": "cd61809379c64382365224cac5e4ade29c423eb4ae4e3ffeb7d202bfc83cb6eb",
        "embed-pretty upper16": "4580c6f1ab1df9915e3cf9c5a68b1d821ddc1ccc6570c07e3cf9b897a1e78df1",
        "recover upper16": "18966ed85816eeddbef7a3551f3f5e4ac42194704e9a6c7e1f7d7375a9520d10",
        "embed block416": "1f5fdbfe51cd65b1f650b27bf58d10b4997fd008610d2ec89c3374d065c71ec7",
        "embed-pretty block416": "819099452bc8b1eb58a6097569a4191a112f48ded512a45774100854cf15439f",
        "recover block416": "fcaf190ff200fea0bf17d8f9bf812ebb7401575c8ede131c76b44ea49fc513b4",
        "embed sum216": "ff6a3ed9b5eb9bca494055091d08e7de08d5d9ab6a71368eed384b30dfdf0d11",
        "embed-pretty sum216": "74ef7b09490b197b5a28483afe3efc198e5aeb5bcd2633a585d3f2948ea1576a",
        "recover sum216": "fa9eead9be30a61c2b67bb462f64696ff55a7b6b10e9820964b1a02c2a5c8b4b",
    },
    "Katmai": {
        "embed full8": "c1de367000e66f757accaf6dc3119270085366bfb38dc35449174a4002158ea3",
        "embed-pretty full8": "abd86c2934cb03f5cf6ed3ca58803c068e6666106feec45849ad02793e341bb5",
        "recover full8": "1e11a5068f80645b62011f68d753528e66513e5d60a4995d19dd323c261d278d",
        "embed upper8": "cce7b6028c71ca0af92a9988be845237166befa48d70bc45533174974b4ae5b2",
        "embed-pretty upper8": "aed96546c4d8814676e260ff84883b1bab359fd370e1a3f7610384de812b4f5a",
        "recover upper8": "986c3f45abfdb22d06b2afc856c61480cd4a8f6124a5680733f6ef5d1f42ef29",
        "embed block48": "f2ddf9aa7cd9d61c5ea5d592ef7076277131f302a41e7b4807df33b849f270de",
        "embed-pretty block48": "e65bb520292b806190e01a257eb550059936b9691e73825146f817552b4c66b7",
        "recover block48": "fcd6bb58e291e9f0954b4db95b0681d5f47b766b68cf26dc36857da76868422f",
        "embed sum28": "da56ce18f1434f5358223ea500afd438e5e60e5e732f2fec646deefd73da554b",
        "embed-pretty sum28": "3806879487a6386fff21df0c87228fe7d063e15cd8f1a58255dc4e3497f7c674",
        "recover sum28": "9d3cc02eac672ea114b3bdd7e193f8e894864ef7cdca9aaaddaaf8ea69a98a4e",
        "embed full16": "fae540dadea77d28e33ae684d9ae0dd98c0899f4d01908cb49d7ed65496bc78f",
        "embed-pretty full16": "7dc2c9eac1b14d50be4b475051c5f889f6c76d343c83744957662330735dd3a0",
        "recover full16": "c813f5b96fad493a7d688316365569b8e78c0fb68ce67a46280ef1fcd6d0a0c4",
        "embed upper16": "581376d9fe34c516afc453a9d3deadb702ff6fe25e24fffa7553ad9f3f7fd135",
        "embed-pretty upper16": "e429bfd7668ced9ad815c6e22bff02b8a9d35b11abe30a35b4be0df79a13f4e1",
        "recover upper16": "e6d12aa6ac16fcc85d982a437b898ca2b8dd49eb6fb3a9f82a4c61b18944943e",
        "embed block416": "182250237f73fd3227e780df981325024eac145da779676a580e7784fa252e5f",
        "embed-pretty block416": "460ec876753000583cab0254fdc0d7a01128ce47255721489bb9a9270c83dec3",
        "recover block416": "03dcae5b9b9262e4d354ffdb85295dadf21ee10ec68ddea4fd8ac5211b11838f",
        "embed sum216": "b294a661cfabe065da948e55434e1f9f2adca094668985532e568c7b5bf86a34",
        "embed-pretty sum216": "a359c02989e190b2c63e811a5351044342ef057a8fbd40713e2afcd46b0f0fd1",
        "recover sum216": "0852f2d0dd90e43b0494ba1747ed2bf05149671f7897c92a03d25cf2c4c48d34",
    },
    "Nehalem": {
        "embed full8": "8063473ee9f85c55781d7deb52219ed23c4b15d51b5d498a7cdfdc6f61a85ce7",
        "embed-pretty full8": "81b7ce5f8bb304d829219cae6ba9d13829d45e1e224b26dae9a4fa8b42a974f1",
        "recover full8": "76a83f6804a06fdbb73812da262717065b34c471834948165da6466e7e077c7b",
        "embed upper8": "8d3ebe5788f3ecba07fbe0127bf6f73941ce7c12fd6a89c88d43b7a2b7f2c841",
        "embed-pretty upper8": "aa95c1e757257006a41ec2d034f0fcf8a2e578126fff4021c54a20487eb36b42",
        "recover upper8": "6328c75f019fb3f47f82b805cfa9ff2da91694bffe66265b205dacdb72e4b247",
        "embed block48": "6e69ba2d1c971520e8cb2c46e036f8a9d7444f4a7cc492c6fadb19d29154405e",
        "embed-pretty block48": "52d45a26623257a85249d4fc694c6c68d1363c12cd4a2157a839a273ef064fab",
        "recover block48": "f0b6e4e6fc60e7f8553b6784562d38502ff19c8606dd629fdd1fa28c385894c9",
        "embed sum28": "ec9804f0c762dbb133d9e2ceb5ffb09b9ce6f8a388c7a50097fdeb9c53c5c73d",
        "embed-pretty sum28": "302a21869bfb8ae80219a0185c195272f66ba8b12dfc3738ec1ed9bef5d4aee0",
        "recover sum28": "8f67a3603065b76f9fbf41a47002a1d883b4f77bf8dd4378ff06b9ccdb4b9e90",
        "embed full16": "5ad60a8d8a6923f7335c72da3e1bc4279dcd3bce7ad59477a3d2eb84fa2d8b4f",
        "embed-pretty full16": "902bd9ad5844c24b36b25a0c36ffb7ab21cfb4007c286074fa48c2402a6b0970",
        "recover full16": "1af71db7a7928b79f23d6b7cd1c50ca937b086c05373e73e5c82275f2816a951",
        "embed upper16": "8ffc9c49c7b193eb62e95afeb74ec8011678965bfc444b4942a634d0b0cf158f",
        "embed-pretty upper16": "602a33bfb9baa6d0755c7aa04f4b4fa5969dece051eb096481883657e01ab7a1",
        "recover upper16": "09e9a5c95f0721c577542809999845239b0dac3431af13bdec3245d331e20f17",
        "embed block416": "596dfbff19e446df6e8f3c39a1fff2b3e332a55b219f8ce3183eac3e15e7dfd2",
        "embed-pretty block416": "aedb4b1b8dbda1ed8ed87fce4db4621e01f436dbdb57c7f2b92944f8b4ca966d",
        "recover block416": "4ff91c286e5404c9ae4d1afbdd1be945e908168e7d47ecd581389ed798c8b9d2",
        "embed sum216": "0172eaa4122f657c9961b9c397b0edfdbc83ac109601e4e298cc4c6976615629",
        "embed-pretty sum216": "6be6a7336b0774e97f098ae8445b50e7e4db9970a104c68cce49d1d8c15f2035",
        "recover sum216": "87bc7800a3280b97201ae56cb39c141fa758fa4db047e4d3bc443033676a66e2",
    },
}


def openblas_kernel():
    """The kernel that numpy's bundled OpenBLAS runs, by the name it reports
    ('SkylakeX' on an AVX-512 machine), or None when no bundled OpenBLAS is
    found."""
    import ctypes
    import glob
    import os

    root = os.path.dirname(np.__file__)
    for lib in glob.glob(os.path.join(root, "..", "numpy.libs", "libscipy_openblas*")) + \
            glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def pinned_digest(verb, shape, n):
    """The recorded sha256 of `verb`'s stdout on seeded_spec(n, shape)."""
    pins = PINNED_VERIFY
    if verb != "verify":
        kernel = openblas_kernel()
        if kernel not in PINNED_STDOUT:
            pytest.fail(f"no {verb} digests recorded for OpenBLAS kernel {kernel}",
                        pytrace=False)
        pins = PINNED_STDOUT[kernel]
    return pins[f"{verb} {shape}{n}"]


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("verb", list(VERBS))
def test_spec_verb_stdout_pinned(capsys, tmp_path, verb, shape, n):
    want = pinned_digest(verb, shape, n)
    code = main(VERBS[verb](write_spec(tmp_path, seeded_spec(n, shape))))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == want


def test_embed_evaluates_in_stacks(capsys, tmp_path, monkeypatch):
    # embed reads the 256 units of full M_16 through the spec's stacked map,
    # 32 at a time, and prints the bytes pinned for one-matrix images
    from smalg import cli

    build, shapes = cli.build_embedding, []

    def recording(spec):
        phi = build(spec)

        def record(X):
            shapes.append(np.shape(X))
            return phi(X)
        return record

    monkeypatch.setattr(cli, "build_embedding", recording)
    want = pinned_digest("embed", "full", 16)
    code = main(VERBS["embed"](write_spec(tmp_path, seeded_spec(16, "full"))))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert shapes == [(32, 16, 16)] * 8
    assert hashlib.sha256(captured.out.encode()).hexdigest() == want


def test_huge_s_is_the_identity(capsys, tmp_path):
    # phi does not change under S -> cS, so S = 1.5e308 I gives the identity;
    # unscaled, S X overflows and S^-1 is subnormal
    rho = upper_triangular(4)
    spec = JordanSpec(rho, 1.5e308 * np.eye(4, dtype=complex),
                      coboundary(rho, {i: 1.0 for i in range(1, 5)}),
                      CentralIdempotent((1, 1, 1, 1)))
    path = write_spec(tmp_path, spec)
    code = main(["verify", "--spec", path, "--samples", "20"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["all_pass"] is True
    code = main(["recover", "--spec", path])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    report = json.loads(captured.out)
    assert report["max_unit_error"] == 0.0 and report["max_sample_error"] <= 1e-15
    code = main(["embed", path])
    units = json.loads(capsys.readouterr().out)["units"]
    assert code == 0
    for unit in units:
        i, j = unit["unit"]
        img = jsonio.matrix_from_dict(unit["image"])
        assert np.abs(img - np.eye(4)[:, [i - 1]] @ np.eye(4)[[j - 1]]).max() <= 1e-15


@pytest.mark.parametrize("verb", ["embed", "embed-pretty"])
def test_embed_peak_memory_bounded_at_n16(tmp_path, verb):
    # both layouts are rendered as pieces of at most 8 entries and joined
    # once, with no table of [re, im] lists beside them, so the traced peak
    # stays below 3 times the report's length (a table dumped by json.dumps
    # peaks at about 5 times)
    import tracemalloc

    path = write_spec(tmp_path, seeded_spec(16, "full"))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(VERBS[verb](path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(out.getvalue())
    assert code == 0
    assert peak < 3 * size, f"peak {peak / size:.2f} times the report's {size} chars"
