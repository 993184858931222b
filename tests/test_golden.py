"""Byte-identical outputs on the test corpus, pinned as sha256 digests.

Each case is the stdout of `molien verify --format json` or `molien
invariants --format json --degree d` on a spec file written from a
corpus group's generators, or an exact group's `molien_rational` form
printed with `format_scalar`. Four float groups also pin raw binary64
bits as `float.hex`: the complex value the class traces hand to
`backend.count` at each degree, and the coefficients of
`invariant_basis` at each degree. A change meant to keep results the
same leaves every digest as it is. A change meant to alter an output updates
the digests it names; `python tests/test_golden.py` prints the current
ones, and `python tests/test_golden.py --check` names each case whose
digest differs and exits 1. Neither needs pytest, so both run on any
installed interpreter.
"""

from __future__ import annotations

import contextlib
import functools
import argparse
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

try:
    import pytest
except ImportError:
    pytest = None

import corpus
from molien import format_scalar, molien_rational
from molien.cli import main
from molien.invariants import invariant_basis, reynolds_traces

GROUPS = {
    "trivial1": lambda: corpus.trivial(1),
    "trivial2": lambda: corpus.trivial(2),
    "trivial3": lambda: corpus.trivial(3),
    "pm_i2": corpus.plus_minus_i2,
    "s2": corpus.s2,
    "s3": corpus.s3,
    "s4": corpus.s4,
    "s5": corpus.s5,
    "s6": corpus.s6,
    "c4": corpus.c4,
    "d4": corpus.d4,
    "q8": corpus.q8,
    "2t": corpus.binary_tetrahedral,
    "b3": corpus.b3,
    "b3_conjugate": lambda: corpus.signed_permutation_conjugate(corpus.b3(), 3),
    "g423": corpus.g423,
    "g8_type": corpus.g8_type,
    "wf4": corpus.wf4,
    # conjugates whose generators have entry denominators that differ between generators
    "b3_gaussian0": lambda: corpus.gaussian_unitary_conjugate(corpus.b3(), 0),
    "2t_gaussian0": lambda: corpus.gaussian_unitary_conjugate(corpus.binary_tetrahedral(), 0),
    "dihedral5_float": lambda: corpus.dihedral_float(5),
    "dihedral12_float": lambda: corpus.dihedral_float(12),
    "h3_float": corpus.h3_float,
}
VERIFY_DEGREE = 8
MAX_INVARIANT_DEGREE = 6
# float groups whose raw trace sums and basis coefficients are pinned, to this degree
RAW_DEGREES = {"h3_float": 8, "dihedral12_float": 16, "dihedral30_float": 16, "dihedral60_float": 16}
RAW_ONLY = {
    "dihedral30_float": lambda: corpus.dihedral_float(30),
    "dihedral60_float": lambda: corpus.dihedral_float(60),
}


@functools.cache
def group(name: str):
    return {**GROUPS, **RAW_ONLY}[name]()


def cases() -> list[str]:
    out = []
    for name in GROUPS:
        out.append(f"verify/{name}")
        out.extend(f"invariants-{d}/{name}" for d in range(MAX_INVARIANT_DEGREE + 1))
        if not name.endswith("_float"):
            out.append(f"rational/{name}")
    out.extend(f"{kind}/{name}" for name in RAW_DEGREES for kind in ("raw-traces", "raw-basis"))
    return out


def hex_complex(z: complex) -> str:
    return f"{z.real.hex()},{z.imag.hex()}"


def raw_bits(kind: str, name: str) -> str:
    """The raw float results of a raw-traces or raw-basis case, one line per value."""
    g, top = group(name), RAW_DEGREES[name]
    if kind == "raw-basis":
        return "\n".join(
            " ".join(f"{mono}:{hex_complex(c)}" for mono, c in f.terms.items())
            for d in range(top + 1)
            for f in invariant_basis(g, d)
        )
    backend_class = type(g.backend)
    count = backend_class.count
    seen = []

    def recording(self, value, what):
        seen.append(f"{what}: {hex_complex(value)}")
        return count(self, value, what)

    backend_class.count = recording
    try:
        reynolds_traces(g, top)
    finally:
        backend_class.count = count
    return "\n".join(seen)


def write_spec(name: str, directory: Path) -> str:
    g = group(name)
    exact = g.backend.is_exact
    cell = format_scalar if exact else (lambda z: z.real)
    spec = {
        "dimension": g.n,
        "backend": "exact" if exact else "float",
        "generators": [[[cell(x) for x in row] for row in m.rows] for m in g.generators()],
    }
    path = directory / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def output(case: str, directory: Path) -> str:
    kind, name = case.split("/")
    if kind.startswith("raw-"):
        return raw_bits(kind, name)
    if kind == "rational":
        numerator, denominator = molien_rational(group(name))
        return "\n".join(
            " ".join(format_scalar(c) for c in poly.coeffs) for poly in (numerator, denominator)
        )
    if kind == "verify":
        argv = ["verify", "--degree", str(VERIFY_DEGREE)]
    else:
        argv = ["invariants", "--degree", kind.split("-")[1]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--format", "json", write_spec(name, directory)])
    assert code == 0, f"{case} exited {code}"
    return stdout.getvalue()


def digest(case: str, directory: Path) -> str:
    return hashlib.sha256(output(case, directory).encode("utf-8")).hexdigest()


GOLDEN = {
    "verify/trivial1": "f1b7871e0cdff46bf72285c6c09ff7d7e29bba654861364832bbf79f14452351",
    "invariants-0/trivial1": "af949d682047e1f65d76d5ee127f25fba55dfde64b27527486b4d544f511c0bd",
    "invariants-1/trivial1": "3319314c3adc96d75e5699b266d4b20021b9e5d3f7f9b41f739775d43ba625a6",
    "invariants-2/trivial1": "d205a49ef4d4440e41c89e4ad36171c029ecaaa3abcd24c4f60d7b504abd7c69",
    "invariants-3/trivial1": "90f831f13a51e32e4f6de6719b59a7a236acf9c602bb5e3f2882ddf8608bcd03",
    "invariants-4/trivial1": "785b803a43362a7302a78ddd3734fd7e28d7f1516a35297ec227b1ddccc3b302",
    "invariants-5/trivial1": "37fb377376dc5a1d143eb0a21f0748a08966df0c136c523110ff4029442b18bd",
    "invariants-6/trivial1": "63c2c1d862b2e28bd84dfa8f152c036ca817b6b0568e7eafd421b2754ba11742",
    "rational/trivial1": "10e901177df7f7a26c3a4cc27b841f4f61c0836447e390d9f4be38611d7bccfd",
    "verify/trivial2": "e0317c4652ce956d0be5477b4d80780b9a7d4e8df87543e29ef03c402e8fc43e",
    "invariants-0/trivial2": "af949d682047e1f65d76d5ee127f25fba55dfde64b27527486b4d544f511c0bd",
    "invariants-1/trivial2": "159f56bf5d4f8812cb932957aae669592ba9069e2be954a5e95fb6242298823d",
    "invariants-2/trivial2": "2f0e304ac6c0455fb77d54ad744b6faea98cac2ca867c6b415cd9643e505c3b8",
    "invariants-3/trivial2": "e8b91f26e684368ee478fe3e1ce02e43bf51acd7bb4c3512816bc8b08629ebb5",
    "invariants-4/trivial2": "c8df7e5cb488600f989a198f108570dae37f0497c6c292f0d64203927ccabe66",
    "invariants-5/trivial2": "68d99602dc0cbdf9ee3de56dd46e626e092d97e78d809e5472528520c884d71c",
    "invariants-6/trivial2": "f7f0ddba929fa8ba191538a284ee6db072a847eb13dce97e8baddc68eb1f96c3",
    "rational/trivial2": "1149c1f8be5d60e2f9125f8817fc26ad499f12de61fc8a4c6de88c8f66985fa7",
    "verify/trivial3": "86765bb8e0c56fdb24446d5f4eae8871dbd3cefa7b5ef452ad2d17040abaf5dc",
    "invariants-0/trivial3": "af949d682047e1f65d76d5ee127f25fba55dfde64b27527486b4d544f511c0bd",
    "invariants-1/trivial3": "b08d21fb71ea32ed95ffd4f5251cb7e92e42f9f7c71e3a950142b166ffdf4322",
    "invariants-2/trivial3": "c1f8f4cd49dab1bbd9817aa6be880134f130f1c3d1362665b42b85cabdb499ed",
    "invariants-3/trivial3": "4d6626578cf6244caa6c1a3f41733a319b42ad685cd3b25fdd62a68de1c4b9f2",
    "invariants-4/trivial3": "beba4b76a76bf660140bc3ea31313a091c4d9aec60d9e477463fed3128a0b09f",
    "invariants-5/trivial3": "1c392c98c62ea72a4e3a7fb87a811c1753783eaac428b0e8dde470f2a61fc3c2",
    "invariants-6/trivial3": "af003067e924200ed36ff68eb690b9a623e63774568565c7ed5f54c9be9a63e9",
    "rational/trivial3": "56d93cf953eafac53a17f898f6f55ffb8695c2d38becbfbd21581121642d2738",
    "verify/pm_i2": "96187052b401cb11c642287c09bf74be59ba3aad2550d15ac9b09735e68ade8a",
    "invariants-0/pm_i2": "f63481210d62ee700a1c65679beb7cab0fe38f6dc82df263e971acc75bed89e1",
    "invariants-1/pm_i2": "c97d0ea18c37c93ce2050c0056c41572c5ceffbb1e56a7f03bc19f3172f986c7",
    "invariants-2/pm_i2": "b229bad4a69cfee27ee6f9bf80c19e0819bde74134130f3fbfb250406bb608f3",
    "invariants-3/pm_i2": "0a0e79d12f937bc1ef0aa3977956fe85e875fff61f0eecc7c54ca9b5d318ae77",
    "invariants-4/pm_i2": "ac7ccd052d5c426d2f10e6ba49229f08836d9ee9b8697e322258febf9b46a590",
    "invariants-5/pm_i2": "703a400292a94f777b23d2ae9e1a61f7954dd7f72b03023f6ffeab7d3abba010",
    "invariants-6/pm_i2": "dfa9c379c77ce0cee156a3566eaf24000f235f53a9691bdaa14a77b1c5ea18e8",
    "rational/pm_i2": "dd8dc0d0b5d9cd9325f83012ca1e9b20c9496293a16d57636e049262f9c5b6cc",
    "verify/s2": "bf4529b8227c84e14582b7ecec90a5a047cdf79c7efeb9e45e7b18873513ba69",
    "invariants-0/s2": "f63481210d62ee700a1c65679beb7cab0fe38f6dc82df263e971acc75bed89e1",
    "invariants-1/s2": "79702979ef8522116b73718087919678446723cf1c336704354f8455391d2139",
    "invariants-2/s2": "45bf9138256b1ea6c2b78736ca85dffa18be7e1acb01ab569e3680d11ae2bc51",
    "invariants-3/s2": "e278643896a629a54aebaa1656f1afa48b02ac52ddf3a6983576544cf11e110a",
    "invariants-4/s2": "fc6c8c8f81c9ea039baca1405800a9290dac10b7bcd68683d7d97f6ca5e08d4f",
    "invariants-5/s2": "40b89ab55fcc2381fb6a1665aba7297255bfac9bb7379dcd984203f8230a5c47",
    "invariants-6/s2": "1264cc19365045ee532ac883576252b018b40971f0e928a70939f0a7b9ba3264",
    "rational/s2": "32a1a8523a6af84c2e43cd14931994b74c3011cfd33461b2409e47fb49697c15",
    "verify/s3": "04d41e6c75ae8bb2a4cba1c63baf62489002fb07e2b47ec2713ddc7a4e77abea",
    "invariants-0/s3": "2ca3d740329498d37d1442d8cac6ff96cad2e03ff0ef542bf9b738048a841f09",
    "invariants-1/s3": "9384fbace09e52bca29fc83e0f8522559b13bd3084a74d07d35301db745f5346",
    "invariants-2/s3": "bcf049c383be1755a2481ed36d8563ce1c6b03e4b9da221d2384e50456c53f3d",
    "invariants-3/s3": "b7b785ed60b0ed8a90740d7d09238c1a3e958a748f59a7d77f64960f4d054fd8",
    "invariants-4/s3": "803c49be5e1f6b82ac1f5e92cca3f8666799303731e2e0fdec5ef6ec5addaf07",
    "invariants-5/s3": "8a911cebedbd5186e1c11b728e870b45c8083a7ab670238ad452586b7a7f68fa",
    "invariants-6/s3": "cc4f1b7d61b6a98fb2866fb1e9eb64ac9767cb135b1cdd1b067158a82d833bcb",
    "rational/s3": "5a1c61f8771d2aa7c1d2009489fbe4a0d86f998b5ad29db22820042c85704557",
    "verify/s4": "6bdcf7a2b86b5fd3ecdc34417093193b24fb3fdf1d3e5deca1900d5ebcf0694e",
    "invariants-0/s4": "3411eb8ad810d939d06a847811293baf575f82fbdf90c51661b03ca4da0d721e",
    "invariants-1/s4": "aac8a007d008c340fcf932e83c5b1fef5f9c3589ee986c7f62964861f43eda72",
    "invariants-2/s4": "1379e1074569cb05e0446d2e2ce4623f6e2f4c7d96201e532a2af089024bef32",
    "invariants-3/s4": "0f216f2507d9524d4ad38d52a53727b043ed10a396c15667e002cacf263dbf9c",
    "invariants-4/s4": "14ac413c93c9479c0b1f0e9356d39f4e0b2a6adc82dcb6cf80d42e5d9165d594",
    "invariants-5/s4": "01d6dcb4380a81850576035a463ba646f57da5ebc67b603ee40c92e49f268e0b",
    "invariants-6/s4": "0ecb8bf7e4fc7164f612ee9b4d730d2371ed6509dc9426f6159aafdb34971607",
    "rational/s4": "39e09ceb9699956920acda9c0af5a92b661f231a713cb1ff89e29995b86d8b37",
    "verify/s5": "6954cb3af684a345d72cdf002cc1ba432474f2c4e0f70e6fb65510cefb33e403",
    "invariants-0/s5": "b7cfcb3de3f25a01391fd5cb2850185aa2896aa126637c896fb1bb97f3db7799",
    "invariants-1/s5": "4accc593cb74d84e9b3c0fea074dafa310c7e2b4275d1015c3270e77eb3e917c",
    "invariants-2/s5": "4b585416c4b034b8be23292f6e0cdcb1c7e3b6e36c439b7869e4bea39c1ff5bf",
    "invariants-3/s5": "1ce133ede6bde967088df7650b7369556db3ba45081de066accef868436e1bf9",
    "invariants-4/s5": "8e3d6ddc90cd7fb5488e07500c6f1a4a1d38921eecde49b7e8fc33e308585b7e",
    "invariants-5/s5": "244b53bd249ed25909c86bd5b95dd426ac44a86d8ff0ce7688853e6bdbb5545d",
    "invariants-6/s5": "73a11ba493363ae7ce5472aa8c691ec05d037e7462f2aee95af8a0768938921e",
    "rational/s5": "079dd135c5d2448960bb7537fd16b4cb2c80f91e3946e5aaefb56ec62f293e11",
    "verify/s6": "cb95f5e15ff87603215ce4d426240eb3850b9d99d3b5129526c28fad18010fd1",
    "invariants-0/s6": "aca6267e14e3d8643a3c27d55b6382f94af56cfdeb16739dec8ff56f6ddaf4a3",
    "invariants-1/s6": "71ddc74191d2735d92155caa67c8aee1e252f4b2a7e0d2d4567547f51357a0be",
    "invariants-2/s6": "100d3a92ffd2daf40b048d6204be4c7b7c982d77732873a776b33ad9d1ea4b3f",
    "invariants-3/s6": "f9a6ddd65fe1519f0faa4a1507162a4e3068736e3f27a585a09d372eb61689c0",
    "invariants-4/s6": "9150d8e4757c96ff7283aa4d31c430b1facbe7e0e58b784b42952ef7b6404688",
    "invariants-5/s6": "7d861391b0ec1e5c254abc611af6aa71d3d3cdcb7743f41954f2254952816946",
    "invariants-6/s6": "2bb67d413e67343ae2704d41a86301849ed2d9f6ee50edf34c610396b76c48d7",
    "rational/s6": "42d5edfcf1581843e30781511622c3f0985282703ae678540447543ca9a7bdef",
    "verify/c4": "66e6a175bb4690a2c405d75c8e285acf94898bcb31e93d10d7cf412a1037c3e0",
    "invariants-0/c4": "26c6c9778b6e94ae7121a5c7d67e5b330420bca578d0c6d3eac04b633e93d1eb",
    "invariants-1/c4": "52c4d5a8ef8c883f38816e4e5af42e956a712af1f9c39a24a3a02a7f14d84fd4",
    "invariants-2/c4": "de2a676be0c3d74a445d5dbe8e22f72d17636d04ab078e392d929f9ce2cbb771",
    "invariants-3/c4": "4d2d89084ac7271c321e17921184d0d464dddd8ba3d7452363e1968bfe934bab",
    "invariants-4/c4": "b0703ef231aae076576821bb828181cf0c52ce236c2b6f98d579add355aab557",
    "invariants-5/c4": "44c0c0ce2ce99b879eadaf4363e3431ae3e66e576ee56a362adb27248f688fac",
    "invariants-6/c4": "932014564baef043b77a0df4d20d497b23a5a44bf7c7bedcb0ca991e8dd71d89",
    "rational/c4": "ea304a8114768e24bf9388e0d023418b87130180cc5a6cfc2e5ce5a222f71ca3",
    "verify/d4": "37a9a925a9b8168ea3c1393ea6add840772c694d534cf7b687bf3431d090f707",
    "invariants-0/d4": "ef94e011033fcd0662af81b93911c3b258785e7ec305aa2a59b8a1713b734a6c",
    "invariants-1/d4": "b0735103bff4ff6880ed0830a4f4435b6e8d41d57de1c3a4f8612c4444ed26cd",
    "invariants-2/d4": "1e9116b65cf8017b45989d633691348939f6533d18ad6713f582f9b154b97bd8",
    "invariants-3/d4": "00573b636289593fe63d206e7f9577f3c3c45e4d89014b3e40c2b21c95a1f76d",
    "invariants-4/d4": "daa6dde08ee66402a83e11962c8cd653da5a900ffadd462b00fc4e10a4c67aa6",
    "invariants-5/d4": "757c98371fdbc5a5744657895ab2aaa658637eb30c67d71c9443afeeb3b3fc8d",
    "invariants-6/d4": "cef25dcafcb7cdd273c1f37725e688297625180de69587353076e62fe7cbc5e7",
    "rational/d4": "43a6aeed48ad02caddd6f099bf3ec4dfb55ea0ca4afd91cfd63868952294d44d",
    "verify/q8": "a3e885f32b65c88f07cf45b8a75a9882a3a4c5b167989bb35963ba6e45725c9c",
    "invariants-0/q8": "ef94e011033fcd0662af81b93911c3b258785e7ec305aa2a59b8a1713b734a6c",
    "invariants-1/q8": "b0735103bff4ff6880ed0830a4f4435b6e8d41d57de1c3a4f8612c4444ed26cd",
    "invariants-2/q8": "d91c45d88242408b6e06973fc4b52470c195c83a1863257ca54c4f824965944e",
    "invariants-3/q8": "00573b636289593fe63d206e7f9577f3c3c45e4d89014b3e40c2b21c95a1f76d",
    "invariants-4/q8": "daa6dde08ee66402a83e11962c8cd653da5a900ffadd462b00fc4e10a4c67aa6",
    "invariants-5/q8": "757c98371fdbc5a5744657895ab2aaa658637eb30c67d71c9443afeeb3b3fc8d",
    "invariants-6/q8": "ff2cbe4eebaf7cc07095fb3bf3a0c4fb3f6dfca8d31712b603fd91a116d1c68b",
    "rational/q8": "134b8250c47c891b62b2cbc0152b43ef8072f9303d77a18ff0888a443589085a",
    "verify/2t": "9a86dd8b921bc58252a28c707d8202c7303d73f1c3e49273139d9548304e6090",
    "invariants-0/2t": "3411eb8ad810d939d06a847811293baf575f82fbdf90c51661b03ca4da0d721e",
    "invariants-1/2t": "f3730794365f227669cf4e29ac6ab755389ccaba22801c7c85199e0edcf5dea4",
    "invariants-2/2t": "e0e1b6ccb4620f4a5cbd3f6388ad54b1e9dd67b6556e7679b1c6ac8422ad7fd9",
    "invariants-3/2t": "027f9950e6ff311265a79c427603eebefc5902d7346552bcadb1d4f370cbb714",
    "invariants-4/2t": "2134609efec419fb9b7ea09bd5a0ce4da10d0112955ba9bdcc648473ca0a3564",
    "invariants-5/2t": "282c93b5f3be017e55bf58eb80f3f1c3fee501b0a9aaf26b9e7ce00f1b43d9fe",
    "invariants-6/2t": "56381f7d572706c91b2b96fccbfec8c023c98149b8fd9ac86d7b9b94d95c3d30",
    "rational/2t": "dbfe24ae820653b9e7e630ac166b911d1c24a9eb02baa9f4e71ee864abc13941",
    "verify/b3": "41ac45e5cbdd958a37206ec748b2b95a18e15997d0ca0c1c73633589c94587b9",
    "invariants-0/b3": "93dab7f40d0f78f5e378a93b220c3c0522d0f23fa8086d4374153fe11b367348",
    "invariants-1/b3": "4ebd52f1842ee630338e69fb3ae8cca9c9827cf335f0633bab05fe3c1dcb479f",
    "invariants-2/b3": "1b91f56a9ca60b1d3919c81061d762efaa4e9162a6f93f832193b880c1654e98",
    "invariants-3/b3": "cf45dded786c41e1c3395e425d3702fec43018567245c5e2154241b1802db10c",
    "invariants-4/b3": "bfb0a1eeeb5f5267bf1bb0d0297ef0d574245061d147a7605ee3204ecc0b94d9",
    "invariants-5/b3": "f22aa95e99ecf2fc93fbae03375f79ac9ce801b05c91509b554977ed4bc0a4e5",
    "invariants-6/b3": "83b97cb8a95bdf0761719e164d7a1072901fe295b5ad23160b8a8fa47ffbf93c",
    "rational/b3": "27142a4bf92f28b9e6bebabda618b57a779ba7189f240288b888a6dffacc159e",
    "verify/b3_conjugate": "41ac45e5cbdd958a37206ec748b2b95a18e15997d0ca0c1c73633589c94587b9",
    "invariants-0/b3_conjugate": "93dab7f40d0f78f5e378a93b220c3c0522d0f23fa8086d4374153fe11b367348",
    "invariants-1/b3_conjugate": "4ebd52f1842ee630338e69fb3ae8cca9c9827cf335f0633bab05fe3c1dcb479f",
    "invariants-2/b3_conjugate": "1b91f56a9ca60b1d3919c81061d762efaa4e9162a6f93f832193b880c1654e98",
    "invariants-3/b3_conjugate": "cf45dded786c41e1c3395e425d3702fec43018567245c5e2154241b1802db10c",
    "invariants-4/b3_conjugate": "bfb0a1eeeb5f5267bf1bb0d0297ef0d574245061d147a7605ee3204ecc0b94d9",
    "invariants-5/b3_conjugate": "f22aa95e99ecf2fc93fbae03375f79ac9ce801b05c91509b554977ed4bc0a4e5",
    "invariants-6/b3_conjugate": "83b97cb8a95bdf0761719e164d7a1072901fe295b5ad23160b8a8fa47ffbf93c",
    "rational/b3_conjugate": "27142a4bf92f28b9e6bebabda618b57a779ba7189f240288b888a6dffacc159e",
    "verify/g423": "f652197f85e74e4771f354defbeba111beb43e01e3c8f91b95e07b9fe118746b",
    "invariants-0/g423": "911326f293d762e7a8ac3b66c785662d1d5be66ca067c30a84079e0cc334f115",
    "invariants-1/g423": "61e1c23c6ded24abe22c1971892efa2d9bcfda5d2174c0aed0d7b156792d7166",
    "invariants-2/g423": "4a065f9e7bc9411513a32d22f685ea0ff26d437bc1ff156ddb7d284ddb0da2dd",
    "invariants-3/g423": "bf3292412bb88df0f29fb5765eaf12b9a349014bc6a408d39de99f0e84f65390",
    "invariants-4/g423": "c6eb5c50d4a869edce90bac6b02471428cabf0e6b1c8bc0708408769d7bd830d",
    "invariants-5/g423": "6e7ad0017d29cdd642dfae16ea6806428269a78a8103943e2f5e2701e7c5242c",
    "invariants-6/g423": "da352bd1d8e18d7acd04173a981fbc6f6bce90094c07c5584fb64cf23b1498d9",
    "rational/g423": "859b22684f2a2cc651b368df0519db8c1d3f957293ff4be368f428620c431d81",
    "verify/g8_type": "639ff7d87dab0fdcef1ef7870dad13d0b6397bf1b2747d5486792a8d70a71311",
    "invariants-0/g8_type": "0b529aa0d757d6275338e0e6d71166a124e41fe48ed6c376e97d685a82be28c5",
    "invariants-1/g8_type": "709bdf328bac9fc2e58bb1c91b1d3c9cd5e1fcdeba5936e87862665e8ad65896",
    "invariants-2/g8_type": "f7d634e73bdefd0055ac742adffc67f017e56cbb0310ecea39e1c8394e9634d4",
    "invariants-3/g8_type": "2e033b46097cddf9f2266e6f6639c7eed96899a250533dc906a6c09a6c5337ca",
    "invariants-4/g8_type": "410875dd803291e0807453d0743bfcf72448bfc7b1c1afa4cd8f1b46b097a2e7",
    "invariants-5/g8_type": "bdac253e7f9fee59e999773e4c79a2537f0ffd92ccf62ddad98dcbafea8ffc14",
    "invariants-6/g8_type": "ede95d436337342a617f5e1789dcaf57f4c57cbb8a441fda2dcbc39cee33210d",
    "rational/g8_type": "910891bd4e255a421c6bbd0a382c0c0932a450af9d314fec7239891666612580",
    "verify/wf4": "319fdaee380cee40355acd078e539011dbc1aaba5a863be57be116e30b4330c6",
    "invariants-0/wf4": "161357d19aa52f32a6bdd025a07e40e6b8b92c165f2ca2804f3d2c5dccda4807",
    "invariants-1/wf4": "5a57073876f90fa17abec42461f39675c69cc331723d1e379c2becaec17aaa13",
    "invariants-2/wf4": "90bd3127aabf29ae6a4cb659a64544ecb1727ead5edeacd8852c899ffdde0278",
    "invariants-3/wf4": "3ceef717bd94e41e9183fe7f850512a0e73336941d2751beddeb4851336b08ac",
    "invariants-4/wf4": "62a65c34ea76226c4d66b39fe274d976d1df08651b14dd563889664deb321773",
    "invariants-5/wf4": "415be4c69216142833e70cf6a7bc12a8e3beac958c33003c5fc453fb04b579cd",
    "invariants-6/wf4": "bcb0d92231c1dbce6bbb208466f84c75e546c1fe71f658a9e5f734de2cdfb928",
    "rational/wf4": "c720e184033f4807cb035b3d0d7148dffce934e607c37b40b156a3c136376376",
    "verify/b3_gaussian0": "41ac45e5cbdd958a37206ec748b2b95a18e15997d0ca0c1c73633589c94587b9",
    "invariants-0/b3_gaussian0": "93dab7f40d0f78f5e378a93b220c3c0522d0f23fa8086d4374153fe11b367348",
    "invariants-1/b3_gaussian0": "4ebd52f1842ee630338e69fb3ae8cca9c9827cf335f0633bab05fe3c1dcb479f",
    "invariants-2/b3_gaussian0": "de0c0b6c34eda5e5981a9cd06bf7cd001bb5366cbc399ee52245388263096a6f",
    "invariants-3/b3_gaussian0": "cf45dded786c41e1c3395e425d3702fec43018567245c5e2154241b1802db10c",
    "invariants-4/b3_gaussian0": "b6172f900186d9e1eeb6342c82dfb9dc9333131c1fe1a9619902a720eb6a185d",
    "invariants-5/b3_gaussian0": "f22aa95e99ecf2fc93fbae03375f79ac9ce801b05c91509b554977ed4bc0a4e5",
    "invariants-6/b3_gaussian0": "7de31c0eb38f82c62adfe21a4e5dd58524a06d52740e1d55ad8f9b02afd6f843",
    "rational/b3_gaussian0": "27142a4bf92f28b9e6bebabda618b57a779ba7189f240288b888a6dffacc159e",
    "verify/2t_gaussian0": "9a86dd8b921bc58252a28c707d8202c7303d73f1c3e49273139d9548304e6090",
    "invariants-0/2t_gaussian0": "3411eb8ad810d939d06a847811293baf575f82fbdf90c51661b03ca4da0d721e",
    "invariants-1/2t_gaussian0": "f3730794365f227669cf4e29ac6ab755389ccaba22801c7c85199e0edcf5dea4",
    "invariants-2/2t_gaussian0": "e0e1b6ccb4620f4a5cbd3f6388ad54b1e9dd67b6556e7679b1c6ac8422ad7fd9",
    "invariants-3/2t_gaussian0": "027f9950e6ff311265a79c427603eebefc5902d7346552bcadb1d4f370cbb714",
    "invariants-4/2t_gaussian0": "2134609efec419fb9b7ea09bd5a0ce4da10d0112955ba9bdcc648473ca0a3564",
    "invariants-5/2t_gaussian0": "282c93b5f3be017e55bf58eb80f3f1c3fee501b0a9aaf26b9e7ce00f1b43d9fe",
    "invariants-6/2t_gaussian0": "4598f0067030a8e92e113adfcfda5f2b8ac8fba33256ca286cc7cb75471df8f5",
    "rational/2t_gaussian0": "dbfe24ae820653b9e7e630ac166b911d1c24a9eb02baa9f4e71ee864abc13941",
    "verify/dihedral5_float": "3ac805f8a65ccbb9967c1f24924f0869eba858e3dbc0ac50bb49f22ae1a060c2",
    "invariants-0/dihedral5_float": "ddf2fa1ecd51476d9912d9801bb2aea139792747eb189174790656fed4dca530",
    "invariants-1/dihedral5_float": "a5a10cfd22529b316f9f6d3f3fdb2020254d58943dd8b53c64d54e0cac0fcae6",
    "invariants-2/dihedral5_float": "a1be8b025d6b39ea0daec4f3790c597e850ea2af7a1c6efa38252d0d85d2d54e",
    "invariants-3/dihedral5_float": "0ae387193aeb992f2a312f42ac289ebf96177c5148271468ab04e06745d375ce",
    "invariants-4/dihedral5_float": "07bc1ee6c46d89e50dac9b625ee8210bb02710ccd1452467b1a7ea7e24b02de6",
    "invariants-5/dihedral5_float": "535293e4748335d29505e07e11ab6c8ab57b5d6bd6799706a95b42602e1709f4",
    "invariants-6/dihedral5_float": "0d06ee01cc0723ff37f2f9e528cc564dc7f6fb8473abf4a6090f311edab41059",
    "verify/dihedral12_float": "21320484d07e34e1dc8d335fa89ce2a54e4c61e90cd1bc397ba81616a3bbe97d",
    "invariants-0/dihedral12_float": "3411eb8ad810d939d06a847811293baf575f82fbdf90c51661b03ca4da0d721e",
    "invariants-1/dihedral12_float": "f3730794365f227669cf4e29ac6ab755389ccaba22801c7c85199e0edcf5dea4",
    "invariants-2/dihedral12_float": "28f52673fa9f77ef37ef5004cd5a7a1805209bad0aff1e734700d8f8fe8df8b9",
    "invariants-3/dihedral12_float": "027f9950e6ff311265a79c427603eebefc5902d7346552bcadb1d4f370cbb714",
    "invariants-4/dihedral12_float": "e20a2ae4947258b2d70ab74dd7718103ed3a659b844acdf6c82df0358e109897",
    "invariants-5/dihedral12_float": "282c93b5f3be017e55bf58eb80f3f1c3fee501b0a9aaf26b9e7ce00f1b43d9fe",
    "invariants-6/dihedral12_float": "57e618cd71c41bce6f7164ad5d5eedd7932d544befaa4c2b846391110b4b4bc7",
    "verify/h3_float": "f32c73b19fdb35bbb189b352e9bbfb12448dcc293e34791dc7ce34dc6a639b4a",
    "invariants-0/h3_float": "b7cfcb3de3f25a01391fd5cb2850185aa2896aa126637c896fb1bb97f3db7799",
    "invariants-1/h3_float": "37e245e5a0430beadcb568cac329c11a7d9157a0cf66518c8fa5b239981b8924",
    "invariants-2/h3_float": "030f74f17b454e10748f59f5c3c85af0b90c9ece70dba4afabf8396ccc387b82",
    "invariants-3/h3_float": "46f125359028231f6c76fd87f20f6d0333e70048b6d37dd1218a6766fc9d2858",
    "invariants-4/h3_float": "ec1bbe39e6c5e37dd6621c32f2ec6c6927f69e358fb9d37aa6deed284c6fb5d9",
    "invariants-5/h3_float": "384a4a473fd420842ca3eb724a3cac0394bde51c65b9d6c39e36056f271dfc3a",
    "invariants-6/h3_float": "d562c564ce10d3a86922a4e0c69d8dabc894563cff968387b2347a36efda4205",
    "raw-traces/h3_float": "1a4f3498d5571b7523c53e7db18a363d3921ee972a5cb7d895ea9a315a87b089",
    "raw-basis/h3_float": "57adfc3eaabac42de1ac29b4b4ecc081a62ab5186b4cf55f7fe5611a82460e27",
    "raw-traces/dihedral12_float": "ff89abd41f6e9a4eb1a39ef2fb1464d7306f7da319c5cc4f6512693f976a9bea",
    "raw-basis/dihedral12_float": "370f0eeb7144801f0f750940c96554ad862e4100e41660183865f8c43a848eb7",
    "raw-traces/dihedral30_float": "5b5580d74869cef093ed8d58a3199ea0a56a3fbcc454e83686a23d568ffa482b",
    "raw-basis/dihedral30_float": "9bf5e62d4d2118b694d7185dbf3bd6397d65331abba43b2fb85321a3ba246213",
    "raw-traces/dihedral60_float": "64b935961c41014ce3478c7c5e4bc5e0c79b1e4c7229d2e3c6819bc8f42fcdf0",
    "raw-basis/dihedral60_float": "08dab3138853a3eba4b59c3ed5839354bb59bec74fcfe9507075a37ebd6ea40e",
}


if pytest is not None:

    @pytest.mark.parametrize("case", cases())
    def test_output_is_unchanged(case, tmp_path):
        message = f"{case}: output differs from the recorded one"
        assert digest(case, tmp_path) == GOLDEN[case], message


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the current digests, or check them.")
    parser.add_argument(
        "--check", action="store_true", help="name each case that differs; exit 1 if any"
    )
    args = parser.parse_args()
    differs = 0
    with tempfile.TemporaryDirectory() as scratch:
        for case in cases():
            value = digest(case, Path(scratch))
            if not args.check:
                print(f'    "{case}": "{value}",')
            elif value != GOLDEN[case]:
                print(f"{case}: output differs from the recorded one")
                differs += 1
    if args.check:
        print(f"{differs} of {len(GOLDEN)} cases differ")
    sys.exit(1 if differs else 0)
