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

# sha256 of each verb's stdout on seeded_spec(n, shape), recorded before the
# entry serializer, the cocycle check and the embedding's input check were
# vectorized; any change to a byte of these reports shows here
PINNED_STDOUT = {
    "embed full8": "b0e553da12b71f594fe8a2150f4ac8bfccc3bda57848e65bb25becbd89c18186",
    "embed-pretty full8": "0aa36cf9317d54b34ba36ce739ecc4465a6882e728a656a3c799dcde507414d2",
    "verify full8": "6999d6aeaa7b288227b7559622181780c6dde5ef48dec924e1123b9a217256a6",
    "recover full8": "c4bedef3f1a016b48e74f5852846aeb5b12bf92d5cb3c0596134fa43d3c0b6cc",
    "embed upper8": "8b38c6811158c512c18f263d61b60d389a84ca61ea2d575dfb735d7c47c88d48",
    "embed-pretty upper8": "d22925f83af454316d5244287f4df6a230dc039ce2ddd106f687811eb1fdc701",
    "verify upper8": "951f64885a238b8b54fdcb2ca1699269e323945ee0282988935006b7f5783bbb",
    "recover upper8": "e3ff7fd956f83acddf48aacf91d7beece6f4f284a1473e328de2b76588d423c0",
    "embed block48": "72d5791365be77d7d83b7eddf031ad7fc818f0d11038ca1b5c341f5ddded8a73",
    "embed-pretty block48": "17595963e2cb4fa50f64483efd2be8d28b27a2c7b442f9cfa07e8e2c5c4a0962",
    "verify block48": "1616b7ee63a64729be2cec4617e0d79a3ecb26c550f92f541a9bed1e137c4189",
    "recover block48": "85db2f7f065bfc9484015de54a7ec95448a7412a6b2bf4376df2e489575a63b0",
    "embed sum28": "f605aed03317cb817d2c696b2f2eed2723f180182d0c2d1085a83671573bdffc",
    "embed-pretty sum28": "d67d27ad673446309c3cdbacfa6f7200bd99d88a1f172a2ec89688ac2f4abddd",
    "verify sum28": "9fe3dc58fbf160ffed40ae1a23e4e973d40541e396383cd1805e939b49a690e0",
    "recover sum28": "696708ffd4b825f4db83e137bce5620a457cdd529883a471aee7eec350552d0f",
    "embed full16": "c0d7d0c0df3e149c06e13186ef552546ecdef4c7c4542728007713ea310c6769",
    "embed-pretty full16": "55cecb7e013f7543cb1ae0b3bbf4c8d2b9a9ecd27a8beab8feb250e7cec473f6",
    "verify full16": "04ff454cab279b5c338280238c8cd504ced3eedf788bbf3f1fa243ae38d17dec",
    "recover full16": "b575f13865d1f288e56061f47a43131fc311d0052990772c330d92e502d36295",
    "embed upper16": "dde99afc0e769cefaa303070b68828f2d5fb0fda1d47179866c27e4318cc4469",
    "embed-pretty upper16": "15348938c49f5eb9af5da635752b9b31e80b75935a056e3a2c07942896628531",
    "verify upper16": "3092ca1c1e1db144193e81b3ce7b4974246c4aecfdb3a8e9fe06cea7ba4b5678",
    "recover upper16": "8d36e284a1432d827a747aaaf828a910cbc06e439451ace909efde13184ad5c2",
    "embed block416": "b712fccd59f6fa43d18e9e3bc37d66f115e6dc2ec16f8c95813400e68912dd36",
    "embed-pretty block416": "ca668faa86695cc42b9a17b4e47b38894adc471c61a7c31800af876463aead81",
    "verify block416": "b5def30910e5b94bd00ca95e0cd99510add0bd5259ee0728cc371a16b1ae80c0",
    "recover block416": "6c6e30dffdb734ee04356240e6d05948f65cfc4d5edf9c335a7e476b5557d2a0",
    "embed sum216": "27a2a139f0075d3d52ae1ea1c33b35fb4dda20b9de2880682536e0f8cc02f43c",
    "embed-pretty sum216": "a3a36d545274975de26b0363665b027c4e486341c3cb4d6ec16fbff337e76125",
    "verify sum216": "04ff454cab279b5c338280238c8cd504ced3eedf788bbf3f1fa243ae38d17dec",
    "recover sum216": "6fe917ef27fab533bbbd0ad8f1595e1f0dfb1b834342d98f841bfef89e4ec738",
}


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("verb", list(VERBS))
def test_spec_verb_stdout_pinned(capsys, tmp_path, verb, shape, n):
    code = main(VERBS[verb](write_spec(tmp_path, seeded_spec(n, shape))))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == PINNED_STDOUT[f"{verb} {shape}{n}"]


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
