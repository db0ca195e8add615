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
# images of the diagonal units instead of an eigendecomposition.
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
        "recover full8": "a5cd03abc3dd37740e1ec9bb5bd727faa7ac5eb6d19d5e0e4bcde647c8193f5b",
        "embed upper8": "8b38c6811158c512c18f263d61b60d389a84ca61ea2d575dfb735d7c47c88d48",
        "embed-pretty upper8": "d22925f83af454316d5244287f4df6a230dc039ce2ddd106f687811eb1fdc701",
        "recover upper8": "97658319f7c64c74f6146fe597e13cb03cec8d19a2db3beab0abd6f265c41be5",
        "embed block48": "72d5791365be77d7d83b7eddf031ad7fc818f0d11038ca1b5c341f5ddded8a73",
        "embed-pretty block48": "17595963e2cb4fa50f64483efd2be8d28b27a2c7b442f9cfa07e8e2c5c4a0962",
        "recover block48": "3848fd19529969193315b5130cb5d50746754aed65dc7d834078a388d4dc0d8f",
        "embed sum28": "f605aed03317cb817d2c696b2f2eed2723f180182d0c2d1085a83671573bdffc",
        "embed-pretty sum28": "d67d27ad673446309c3cdbacfa6f7200bd99d88a1f172a2ec89688ac2f4abddd",
        "recover sum28": "f1ace60ffc2c94a331576789ae02511f975c408cbfa1509292b1d7be4e9f37b7",
        "embed full16": "c0d7d0c0df3e149c06e13186ef552546ecdef4c7c4542728007713ea310c6769",
        "embed-pretty full16": "55cecb7e013f7543cb1ae0b3bbf4c8d2b9a9ecd27a8beab8feb250e7cec473f6",
        "recover full16": "e31da07fbfa0c4e123f011cb69e7606abaa76d3d2062d8e7babbb89038c0b209",
        "embed upper16": "dde99afc0e769cefaa303070b68828f2d5fb0fda1d47179866c27e4318cc4469",
        "embed-pretty upper16": "15348938c49f5eb9af5da635752b9b31e80b75935a056e3a2c07942896628531",
        "recover upper16": "c93d2fe2651f426ced2a90c8e5f6bac8fcf9274d2d0f000757d93c2576078d88",
        "embed block416": "b712fccd59f6fa43d18e9e3bc37d66f115e6dc2ec16f8c95813400e68912dd36",
        "embed-pretty block416": "ca668faa86695cc42b9a17b4e47b38894adc471c61a7c31800af876463aead81",
        "recover block416": "6810f0e3703775f766fd3f9b4705209a70cc0617208db6d97ddd699018bbc14b",
        "embed sum216": "27a2a139f0075d3d52ae1ea1c33b35fb4dda20b9de2880682536e0f8cc02f43c",
        "embed-pretty sum216": "a3a36d545274975de26b0363665b027c4e486341c3cb4d6ec16fbff337e76125",
        "recover sum216": "664312454871163fb85976530d301e410fa071654162dd0cc2804a23a07b7942",
    },
    "Haswell": {
        "embed full8": "d63fc966d13ef2780214ca9dc50eb21711052596dcb5c4943f94da64157e26b5",
        "embed-pretty full8": "a9e2704e3159bd3c88f0cc84c12f54388830e0eade6812fcf2c0ff8fc614877d",
        "recover full8": "9f10c44d8808a67b3a8bb8f54a876368cfa4f617380197d8d9d6dd075d35bcc8",
        "embed upper8": "29c962ade4b1015291b9e233e9579c24a3120d2d32b420c45a5eda174ecc9521",
        "embed-pretty upper8": "038afcbb5bfeb88255ce47b34215cd94c1ee5c73107c54fe7f7bf4c0594eab5f",
        "recover upper8": "2a95d91d8e75f0d15871b5f53f2b0c7edfbb304c8c8dd22cf40a57ab437bcd7a",
        "embed block48": "ebd011346a4a47fff1577a73bd4f98acce71569e0c73c6b19df3308695d540ba",
        "embed-pretty block48": "984d44d9c00c3c2f9826352845fea47717c5bdca5520cedf79569639f7c9f730",
        "recover block48": "9eb2ae6cfbee86e7ac850667a5df151adca0264c1f959fead2b40118baeec9de",
        "embed sum28": "58080cab97477d5a8a887101ef8906ef1bce62f4c4fce16dc75d8b3478c23775",
        "embed-pretty sum28": "a2874bdeed3f209f7e02aec9cd5014b8773d13cc38047571e80aa9dbca732c48",
        "recover sum28": "10fbb9770805ef7727d5d4be70c19b19b55d125759910f3ea2475964f58ce88f",
        "embed full16": "ce3a7b60bc822cbbb8fc3089e5515bb66c119f24b31369605287f8481e6140b0",
        "embed-pretty full16": "5f3fc69d6cc173b29954e594dcf0c399e89f76d334825503c561207202e99b91",
        "recover full16": "ed2a998ef7d933d58525a3a88df396cac3f2203539c1a58b7209c0fb3a3b3dc7",
        "embed upper16": "5ad60d2b2356c85ab20e41ba126c4c02e546a60ed9820184f643d4bbabeaae89",
        "embed-pretty upper16": "07dac1b91c13ce08bbfc937d5f4afa08c24cc450d254763e2d770cb3267299e5",
        "recover upper16": "ac53a69b6c2b1f002ed4bb9e34483022e26ed8ca86b8e31086d5e4c70ee85e42",
        "embed block416": "3127c7d0b7e3ea3de3580f25131948241f6a035b80996c44e91ab60e50361669",
        "embed-pretty block416": "242077694d03a95fe297616a6ef74fd79555bfee76cbaa47cd190fad3edd819f",
        "recover block416": "fa5be46cbd1d3437087010c72e70ac80d8ec9b0aa27cc8dc1f1f67733dd0cbcc",
        "embed sum216": "07b90aac59c7a747f568de4c02ec130c9512d04ff62040c6c514f4e2ebaff2a8",
        "embed-pretty sum216": "aaefcf9da10ca8f8b2e8137f692411aa70140f18a51695a74a77d276171181aa",
        "recover sum216": "17017cad2a95a71ca221ce577338d4552dbda66b1d96ce5007de8df89e289808",
    },
    "Sandybridge": {
        "embed full8": "7523e75f4db086ee5ad7a9e8d2467c2821671870e064cc79ec623956507f8d31",
        "embed-pretty full8": "4ef4bf615b62e2fffaacffd10c813138220d9fb9b77f81307de8122703bc4621",
        "recover full8": "f4866be3cfcc5a8ac511ce80ad7aeb5c3151c3d33cddc080ce0b5060ce405c78",
        "embed upper8": "cbda92547d66ad69e56a683f4ec3a7e3b504ea391738fc6d3e60158dce9da1cf",
        "embed-pretty upper8": "c1fd08e30574fad305eadedd13a83965af34e3fe30a13e337a879bce637c7885",
        "recover upper8": "fde0f722ae90e2dc2fb54a03e65b4c4c2fc302110084014c5cb0251d9e92e40e",
        "embed block48": "d9e53471e60911efa47970669f4f0123d5c19028451a77aa37ab7406bf000185",
        "embed-pretty block48": "370d557711a91064bc67f8e3b198977c6a84e095e9187c3e0d47c5aeaf9967c3",
        "recover block48": "23c475308f8919229f9d8888b8d6475ae224fdedba841ad77273ea52f42199ea",
        "embed sum28": "18454be927df416fa1d2f349ae2a1872a4175f22b9915984486c76599df298bd",
        "embed-pretty sum28": "872a25550ecb372e92ca50243465b51b4aeb43be16b39211c2e0c0403f52ee63",
        "recover sum28": "d2099ffec99a8d9ebf6772edf4c2a81278abb1d608fa483c0644bc3cc91a4985",
        "embed full16": "ea53029a5d5df3f12112f4591ea1073c78646f0b0dd4b5442652763d7a3adb5d",
        "embed-pretty full16": "2c3ea518b96bd818fd62c980903766636c3e5a4c5b1160d459ed6504b6c3d534",
        "recover full16": "20ab773f62c22923552444fa65f44dbd643fc16f2a6312ffec3ef7bd781cca02",
        "embed upper16": "cd61809379c64382365224cac5e4ade29c423eb4ae4e3ffeb7d202bfc83cb6eb",
        "embed-pretty upper16": "4580c6f1ab1df9915e3cf9c5a68b1d821ddc1ccc6570c07e3cf9b897a1e78df1",
        "recover upper16": "d4f2a423091e818d600989cd428a9e5131c3bb9e09f87aed36a1c3c07ed2e640",
        "embed block416": "1f5fdbfe51cd65b1f650b27bf58d10b4997fd008610d2ec89c3374d065c71ec7",
        "embed-pretty block416": "819099452bc8b1eb58a6097569a4191a112f48ded512a45774100854cf15439f",
        "recover block416": "d70c7a797e9423780a8056d84871e7e594aba0e39baaa3a612c7b6425db17e7a",
        "embed sum216": "ff6a3ed9b5eb9bca494055091d08e7de08d5d9ab6a71368eed384b30dfdf0d11",
        "embed-pretty sum216": "74ef7b09490b197b5a28483afe3efc198e5aeb5bcd2633a585d3f2948ea1576a",
        "recover sum216": "16f41cbdfee21cee81373adb0a67431af85c3d9642b9da7d68195050d931e868",
    },
    "Katmai": {
        "embed full8": "c1de367000e66f757accaf6dc3119270085366bfb38dc35449174a4002158ea3",
        "embed-pretty full8": "abd86c2934cb03f5cf6ed3ca58803c068e6666106feec45849ad02793e341bb5",
        "recover full8": "5ba2af47488e98c60dac826c517c20748e67852899ff189b0e2e8dfd770bab5a",
        "embed upper8": "cce7b6028c71ca0af92a9988be845237166befa48d70bc45533174974b4ae5b2",
        "embed-pretty upper8": "aed96546c4d8814676e260ff84883b1bab359fd370e1a3f7610384de812b4f5a",
        "recover upper8": "d22240c010f499eae53a4c53c6d6c91a343878120bbf24e06b91b9081ba73519",
        "embed block48": "f2ddf9aa7cd9d61c5ea5d592ef7076277131f302a41e7b4807df33b849f270de",
        "embed-pretty block48": "e65bb520292b806190e01a257eb550059936b9691e73825146f817552b4c66b7",
        "recover block48": "e162684292ca8c21cde01f762105c9922a81138935633176722138b0791d6336",
        "embed sum28": "da56ce18f1434f5358223ea500afd438e5e60e5e732f2fec646deefd73da554b",
        "embed-pretty sum28": "3806879487a6386fff21df0c87228fe7d063e15cd8f1a58255dc4e3497f7c674",
        "recover sum28": "50308e74391fe5fdec2186cf4b29787ed7fb3727871cbdcd9c0e759d1bfa393d",
        "embed full16": "fae540dadea77d28e33ae684d9ae0dd98c0899f4d01908cb49d7ed65496bc78f",
        "embed-pretty full16": "7dc2c9eac1b14d50be4b475051c5f889f6c76d343c83744957662330735dd3a0",
        "recover full16": "4cbd5d9afdab87e48f005f27d65dd639f19f475bc2422c60ccbd1fab56741062",
        "embed upper16": "581376d9fe34c516afc453a9d3deadb702ff6fe25e24fffa7553ad9f3f7fd135",
        "embed-pretty upper16": "e429bfd7668ced9ad815c6e22bff02b8a9d35b11abe30a35b4be0df79a13f4e1",
        "recover upper16": "ed6f3cf4d30f1d816b0f9899a6ab8965a42606de5514ce0e0600bb19febf85a3",
        "embed block416": "182250237f73fd3227e780df981325024eac145da779676a580e7784fa252e5f",
        "embed-pretty block416": "460ec876753000583cab0254fdc0d7a01128ce47255721489bb9a9270c83dec3",
        "recover block416": "bb37eff135e2eb63efedb54ddeafc16fa2324b19031329d48b562e828bca3f8a",
        "embed sum216": "b294a661cfabe065da948e55434e1f9f2adca094668985532e568c7b5bf86a34",
        "embed-pretty sum216": "a359c02989e190b2c63e811a5351044342ef057a8fbd40713e2afcd46b0f0fd1",
        "recover sum216": "cccd799fe195c9b99f08a098a6e681f365138a13fc585273774eff83b0371889",
    },
    "Nehalem": {
        "embed full8": "8063473ee9f85c55781d7deb52219ed23c4b15d51b5d498a7cdfdc6f61a85ce7",
        "embed-pretty full8": "81b7ce5f8bb304d829219cae6ba9d13829d45e1e224b26dae9a4fa8b42a974f1",
        "recover full8": "679edec6b2f1974e90b4b9118ecdcf1ede6f2e7555d75d482ffe50c9625833b3",
        "embed upper8": "8d3ebe5788f3ecba07fbe0127bf6f73941ce7c12fd6a89c88d43b7a2b7f2c841",
        "embed-pretty upper8": "aa95c1e757257006a41ec2d034f0fcf8a2e578126fff4021c54a20487eb36b42",
        "recover upper8": "2d920c68106dd2cba8f7fb835e24a4ded5e82515af614f88eb9e0195d788e8ab",
        "embed block48": "6e69ba2d1c971520e8cb2c46e036f8a9d7444f4a7cc492c6fadb19d29154405e",
        "embed-pretty block48": "52d45a26623257a85249d4fc694c6c68d1363c12cd4a2157a839a273ef064fab",
        "recover block48": "1576506d4e733538359f31ce23ae4f1a486301e63e773680d207f2bb1db26ec2",
        "embed sum28": "ec9804f0c762dbb133d9e2ceb5ffb09b9ce6f8a388c7a50097fdeb9c53c5c73d",
        "embed-pretty sum28": "302a21869bfb8ae80219a0185c195272f66ba8b12dfc3738ec1ed9bef5d4aee0",
        "recover sum28": "d9e92e6336d7f1c004a985abbdfb552a9ad383fb0e91c11616965cf155c14d68",
        "embed full16": "5ad60a8d8a6923f7335c72da3e1bc4279dcd3bce7ad59477a3d2eb84fa2d8b4f",
        "embed-pretty full16": "902bd9ad5844c24b36b25a0c36ffb7ab21cfb4007c286074fa48c2402a6b0970",
        "recover full16": "f0f3822866e615583d018163a51f7e6c9852425fa557a474b712eeb418f6f0bc",
        "embed upper16": "8ffc9c49c7b193eb62e95afeb74ec8011678965bfc444b4942a634d0b0cf158f",
        "embed-pretty upper16": "602a33bfb9baa6d0755c7aa04f4b4fa5969dece051eb096481883657e01ab7a1",
        "recover upper16": "3fd5942dc1b189d3843aa1d592212dde1b1b02e9ebdfae81ed7780b9846f59a6",
        "embed block416": "596dfbff19e446df6e8f3c39a1fff2b3e332a55b219f8ce3183eac3e15e7dfd2",
        "embed-pretty block416": "aedb4b1b8dbda1ed8ed87fce4db4621e01f436dbdb57c7f2b92944f8b4ca966d",
        "recover block416": "0aeed2f3860f4df59c3b9bd8867ee52180be0f751487134974d3ce1e8bddc2b1",
        "embed sum216": "0172eaa4122f657c9961b9c397b0edfdbc83ac109601e4e298cc4c6976615629",
        "embed-pretty sum216": "6be6a7336b0774e97f098ae8445b50e7e4db9970a104c68cce49d1d8c15f2035",
        "recover sum216": "58593d6e3f075d5fddbc0af1539f70d17861b5eaa86ad12ec0970850b992d53e",
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


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("verb", list(VERBS))
def test_spec_verb_stdout_pinned(capsys, tmp_path, verb, shape, n):
    pins = PINNED_VERIFY
    if verb != "verify":
        kernel = openblas_kernel()
        if kernel not in PINNED_STDOUT:
            pytest.fail(f"no {verb} digests recorded for OpenBLAS kernel {kernel}",
                        pytrace=False)
        pins = PINNED_STDOUT[kernel]
    code = main(VERBS[verb](write_spec(tmp_path, seeded_spec(n, shape))))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == pins[f"{verb} {shape}{n}"]


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


def test_compact_embed_peak_memory_bounded_at_n16(tmp_path):
    # the compact report is rendered as pieces of at most 8 entries and joined
    # once, with no table of [re, im] lists beside it, so the traced peak stays
    # below 3 times the report's length (a table dumped by json.dumps peaks
    # at about 5 times)
    import tracemalloc

    path = write_spec(tmp_path, seeded_spec(16, "full"))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["embed", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(out.getvalue())
    assert code == 0
    assert peak < 3 * size, f"peak {peak / size:.2f} times the report's {size} chars"
