"""The spec verbs `embed`, `verify --spec` and `recover --spec` end to end:
pinned stdout bytes on seeded specs, and embeddings whose S is huge."""

import hashlib
import json

import numpy as np
import pytest

from smalg import jsonio
from smalg.cli import main
from smalg.cocycle import coboundary
from smalg.jordan import CentralIdempotent, JordanSpec
from smalg.quasiorder import QuasiOrder, components

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
# Sandybridge and Prescott; numpy 2.4 bundles OpenBLAS 0.3.31, which reports
# a forced Prescott as Katmai and a forced Zen as Haswell.
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
        "recover full8": "c4bedef3f1a016b48e74f5852846aeb5b12bf92d5cb3c0596134fa43d3c0b6cc",
        "embed upper8": "8b38c6811158c512c18f263d61b60d389a84ca61ea2d575dfb735d7c47c88d48",
        "embed-pretty upper8": "d22925f83af454316d5244287f4df6a230dc039ce2ddd106f687811eb1fdc701",
        "recover upper8": "e3ff7fd956f83acddf48aacf91d7beece6f4f284a1473e328de2b76588d423c0",
        "embed block48": "72d5791365be77d7d83b7eddf031ad7fc818f0d11038ca1b5c341f5ddded8a73",
        "embed-pretty block48": "17595963e2cb4fa50f64483efd2be8d28b27a2c7b442f9cfa07e8e2c5c4a0962",
        "recover block48": "85db2f7f065bfc9484015de54a7ec95448a7412a6b2bf4376df2e489575a63b0",
        "embed sum28": "f605aed03317cb817d2c696b2f2eed2723f180182d0c2d1085a83671573bdffc",
        "embed-pretty sum28": "d67d27ad673446309c3cdbacfa6f7200bd99d88a1f172a2ec89688ac2f4abddd",
        "recover sum28": "696708ffd4b825f4db83e137bce5620a457cdd529883a471aee7eec350552d0f",
        "embed full16": "c0d7d0c0df3e149c06e13186ef552546ecdef4c7c4542728007713ea310c6769",
        "embed-pretty full16": "55cecb7e013f7543cb1ae0b3bbf4c8d2b9a9ecd27a8beab8feb250e7cec473f6",
        "recover full16": "b575f13865d1f288e56061f47a43131fc311d0052990772c330d92e502d36295",
        "embed upper16": "dde99afc0e769cefaa303070b68828f2d5fb0fda1d47179866c27e4318cc4469",
        "embed-pretty upper16": "15348938c49f5eb9af5da635752b9b31e80b75935a056e3a2c07942896628531",
        "recover upper16": "8d36e284a1432d827a747aaaf828a910cbc06e439451ace909efde13184ad5c2",
        "embed block416": "b712fccd59f6fa43d18e9e3bc37d66f115e6dc2ec16f8c95813400e68912dd36",
        "embed-pretty block416": "ca668faa86695cc42b9a17b4e47b38894adc471c61a7c31800af876463aead81",
        "recover block416": "6c6e30dffdb734ee04356240e6d05948f65cfc4d5edf9c335a7e476b5557d2a0",
        "embed sum216": "27a2a139f0075d3d52ae1ea1c33b35fb4dda20b9de2880682536e0f8cc02f43c",
        "embed-pretty sum216": "a3a36d545274975de26b0363665b027c4e486341c3cb4d6ec16fbff337e76125",
        "recover sum216": "6fe917ef27fab533bbbd0ad8f1595e1f0dfb1b834342d98f841bfef89e4ec738",
    },
    "Haswell": {
        "embed full8": "d63fc966d13ef2780214ca9dc50eb21711052596dcb5c4943f94da64157e26b5",
        "embed-pretty full8": "a9e2704e3159bd3c88f0cc84c12f54388830e0eade6812fcf2c0ff8fc614877d",
        "recover full8": "723ef0eace7b8fa06bb4e90807f5aad9c1a158ea14eb5af94c76433bdfa58f18",
        "embed upper8": "29c962ade4b1015291b9e233e9579c24a3120d2d32b420c45a5eda174ecc9521",
        "embed-pretty upper8": "038afcbb5bfeb88255ce47b34215cd94c1ee5c73107c54fe7f7bf4c0594eab5f",
        "recover upper8": "6cc4620c8f7292ece727d4303f5f8ffc6aba59092cdf9b31456ec310e01f9650",
        "embed block48": "ebd011346a4a47fff1577a73bd4f98acce71569e0c73c6b19df3308695d540ba",
        "embed-pretty block48": "984d44d9c00c3c2f9826352845fea47717c5bdca5520cedf79569639f7c9f730",
        "recover block48": "6e49502b6cd6e674a149789d41388da7f59388f894dc48e5237bef00d61cfd6d",
        "embed sum28": "58080cab97477d5a8a887101ef8906ef1bce62f4c4fce16dc75d8b3478c23775",
        "embed-pretty sum28": "a2874bdeed3f209f7e02aec9cd5014b8773d13cc38047571e80aa9dbca732c48",
        "recover sum28": "bf9a5ab15df889d490ded4e283639a9580a535c570c3224673e51a71754e204b",
        "embed full16": "ce3a7b60bc822cbbb8fc3089e5515bb66c119f24b31369605287f8481e6140b0",
        "embed-pretty full16": "5f3fc69d6cc173b29954e594dcf0c399e89f76d334825503c561207202e99b91",
        "recover full16": "5970f3e5de8ffad148560bdfeb2902b96225d7a673608292acdd8d1558eae286",
        "embed upper16": "5ad60d2b2356c85ab20e41ba126c4c02e546a60ed9820184f643d4bbabeaae89",
        "embed-pretty upper16": "07dac1b91c13ce08bbfc937d5f4afa08c24cc450d254763e2d770cb3267299e5",
        "recover upper16": "b3e59af0fa5b4c2b7090ffc7c2a4505928a08de9773d69bf2f95b884beccb04c",
        "embed block416": "3127c7d0b7e3ea3de3580f25131948241f6a035b80996c44e91ab60e50361669",
        "embed-pretty block416": "242077694d03a95fe297616a6ef74fd79555bfee76cbaa47cd190fad3edd819f",
        "recover block416": "750fedcd69c00f28ef34386515742db5ad5cc76f1570fcf0d251a59c1d633adc",
        "embed sum216": "07b90aac59c7a747f568de4c02ec130c9512d04ff62040c6c514f4e2ebaff2a8",
        "embed-pretty sum216": "aaefcf9da10ca8f8b2e8137f692411aa70140f18a51695a74a77d276171181aa",
        "recover sum216": "8605024b99f7ba46271dea846cd45c1b03a3e63bd00cea3f7153b98d4bd4faf4",
    },
    "Sandybridge": {
        "embed full8": "7523e75f4db086ee5ad7a9e8d2467c2821671870e064cc79ec623956507f8d31",
        "embed-pretty full8": "4ef4bf615b62e2fffaacffd10c813138220d9fb9b77f81307de8122703bc4621",
        "recover full8": "2099b03b6b58315c7dd80bbee10b30f4e5f65f305c249f7aecece8eb3a1ec8b5",
        "embed upper8": "cbda92547d66ad69e56a683f4ec3a7e3b504ea391738fc6d3e60158dce9da1cf",
        "embed-pretty upper8": "c1fd08e30574fad305eadedd13a83965af34e3fe30a13e337a879bce637c7885",
        "recover upper8": "7bfccc49658e934c722af3a4db5e99b176cd290b173674f1aef679438153eb73",
        "embed block48": "d9e53471e60911efa47970669f4f0123d5c19028451a77aa37ab7406bf000185",
        "embed-pretty block48": "370d557711a91064bc67f8e3b198977c6a84e095e9187c3e0d47c5aeaf9967c3",
        "recover block48": "505f39c002b1d7ea266c080eb545b6d3714a97854c17dff6e329ad6d6253ba14",
        "embed sum28": "18454be927df416fa1d2f349ae2a1872a4175f22b9915984486c76599df298bd",
        "embed-pretty sum28": "872a25550ecb372e92ca50243465b51b4aeb43be16b39211c2e0c0403f52ee63",
        "recover sum28": "59bc0737e9659676ffc8565b938365f271650c1146b642ce40b8b0a0e98a2069",
        "embed full16": "ea53029a5d5df3f12112f4591ea1073c78646f0b0dd4b5442652763d7a3adb5d",
        "embed-pretty full16": "2c3ea518b96bd818fd62c980903766636c3e5a4c5b1160d459ed6504b6c3d534",
        "recover full16": "54ca31b9192a821b9f2549907a063ab562d4441768a914dd2ad7a1a7fc20ded3",
        "embed upper16": "cd61809379c64382365224cac5e4ade29c423eb4ae4e3ffeb7d202bfc83cb6eb",
        "embed-pretty upper16": "4580c6f1ab1df9915e3cf9c5a68b1d821ddc1ccc6570c07e3cf9b897a1e78df1",
        "recover upper16": "43d9ac4c3822c36b03134a3d725b2da7f422f8e65e9c2308fe3edcab2b47dade",
        "embed block416": "1f5fdbfe51cd65b1f650b27bf58d10b4997fd008610d2ec89c3374d065c71ec7",
        "embed-pretty block416": "819099452bc8b1eb58a6097569a4191a112f48ded512a45774100854cf15439f",
        "recover block416": "1966b06bcacffbd213e34140940164d55f41ad4a5d0619f6f51dd5aa6ace07b8",
        "embed sum216": "ff6a3ed9b5eb9bca494055091d08e7de08d5d9ab6a71368eed384b30dfdf0d11",
        "embed-pretty sum216": "74ef7b09490b197b5a28483afe3efc198e5aeb5bcd2633a585d3f2948ea1576a",
        "recover sum216": "5a3ceb1f803c327d7ad9033c6145a7364b2b8dd647e291bb41df832a88176a22",
    },
    "Katmai": {
        "embed full8": "c1de367000e66f757accaf6dc3119270085366bfb38dc35449174a4002158ea3",
        "embed-pretty full8": "abd86c2934cb03f5cf6ed3ca58803c068e6666106feec45849ad02793e341bb5",
        "recover full8": "6356b906830450789c203f24e79b85d45448438f8b2d1da1ea655cb8c0504caa",
        "embed upper8": "cce7b6028c71ca0af92a9988be845237166befa48d70bc45533174974b4ae5b2",
        "embed-pretty upper8": "aed96546c4d8814676e260ff84883b1bab359fd370e1a3f7610384de812b4f5a",
        "recover upper8": "65e6f2c092cbf4d16618b75c02461e3d8581626f3315cd831cd27caf5421229f",
        "embed block48": "f2ddf9aa7cd9d61c5ea5d592ef7076277131f302a41e7b4807df33b849f270de",
        "embed-pretty block48": "e65bb520292b806190e01a257eb550059936b9691e73825146f817552b4c66b7",
        "recover block48": "254a41e373742c07c79ec0286bb6ed818f13bc91e1901f3c5ca0422fa2d2bda3",
        "embed sum28": "da56ce18f1434f5358223ea500afd438e5e60e5e732f2fec646deefd73da554b",
        "embed-pretty sum28": "3806879487a6386fff21df0c87228fe7d063e15cd8f1a58255dc4e3497f7c674",
        "recover sum28": "15691b2a7372e9605d0d8da163828703118bc97bb04a07c25da16575fe05e994",
        "embed full16": "fae540dadea77d28e33ae684d9ae0dd98c0899f4d01908cb49d7ed65496bc78f",
        "embed-pretty full16": "7dc2c9eac1b14d50be4b475051c5f889f6c76d343c83744957662330735dd3a0",
        "recover full16": "52986edb68d541c9255959510a89ed5deeae63f05e446c898b0f9e854d3b86bb",
        "embed upper16": "581376d9fe34c516afc453a9d3deadb702ff6fe25e24fffa7553ad9f3f7fd135",
        "embed-pretty upper16": "e429bfd7668ced9ad815c6e22bff02b8a9d35b11abe30a35b4be0df79a13f4e1",
        "recover upper16": "faa310de22ab41a66d95bcbd99c5a35bd2b654d24da4eda4861288019343b31f",
        "embed block416": "182250237f73fd3227e780df981325024eac145da779676a580e7784fa252e5f",
        "embed-pretty block416": "460ec876753000583cab0254fdc0d7a01128ce47255721489bb9a9270c83dec3",
        "recover block416": "eba3b42911b9fa6ae746b74c2dc77792ffe3c30b43ffd35e4f0e5e5c99bfda4e",
        "embed sum216": "b294a661cfabe065da948e55434e1f9f2adca094668985532e568c7b5bf86a34",
        "embed-pretty sum216": "a359c02989e190b2c63e811a5351044342ef057a8fbd40713e2afcd46b0f0fd1",
        "recover sum216": "3c82abd49ef0fd23af7ce27e474500f3aa39502730b9ee97b0158e9dcc1ec307",
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
    rho = QuasiOrder.upper_triangular(4)
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
