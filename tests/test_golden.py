"""Byte-level pins on everything the constructions build.

Each `.polyphase` file the CLI writes is pinned by the SHA-256 of its
bytes, and each brouwer geometry by the SHA-256 of the repr of its
vertices, ovoid, orbit representatives and blocks.  The repr also pins
the element types: a numpy scalar prints differently from a Python int.
Brouwer q = 11 and 13, beyond the size guard, are built with the guard
raised and pinned by the SHA-256 of their text chunks, with no file.
"""

import hashlib

import pytest

from etfforge import construct
from etfforge.cli import main
from etfforge.polymat import polyphase_chunks
from reference_geometry import brouwer_geometry

POLYPHASE_SHA256 = {
    ("simplex", "--v", "3"): "9398ca0301af59f7fb36417f7b67d377a772fb4242cbbfc022f7a673b2d2b5fa",
    ("simplex", "--v", "4"): "109dd4d8a95ae1e70049cecfd5f19bc40fc7b59496437ae09d87d72361c177e3",
    ("simplex", "--v", "5"): "79cddb3cecbc387a06665801e768d7d7982894e8c9c14b6ad5a53870e43f50a7",
    ("simplex", "--v", "6"): "aa37acf472fad99a17418c0d8331a5ece9716ce4afba76b56552d9eef167105f",
    ("simplex", "--v", "7"): "7752c0893482c0e3553e9722a35f813246e55cab4b15ee9fc7b8b16443830398",
    ("example933",): "70a3585d94d83fedaebde1c1270d0efc7c5df1a908622964c67d3c4bf9783f41",
    ("affine", "--q", "2"): "0e3b22bc21dd4b51beeae7525539fafc8f9fef6524abeff3b5e5c174f624dc7a",
    ("affine", "--q", "3"): "85b920b91f7b2bda786128b992d0c39736f5807a7fbb1d4bf91e4e1d398e2c42",
    ("affine", "--q", "4"): "430b70968fdb273986bb80d75be8603d92420098d24e56e604c3d9cc61c83925",
    ("affine", "--q", "5"): "eab55306aac32bde7c6eb32f96ae066cced9e933b7497cec17542c6c71fd0fda",
    ("affine", "--q", "7"): "7018c48104f9e7ce5de8a5dff332d64184687f306d377eee6a778c65bb8c5d97",
    ("affine", "--q", "8"): "4f03a7821c9cb5f717f857db2cb8f3eabdd5fc0bf1d2f8486059895dcda753c0",
    ("affine", "--q", "9"): "858ba914ad7ccaae2c085f9a6fc26b45f0b4e5acf1328c67eca6875e6d05a377",
    ("brouwer", "--q", "2"): "721cca1743964c50a05db1983c2584662615599fe69e5af42d5c0ae56d88909b",
    ("brouwer", "--q", "3"): "ba9bb730a4602c9593861d761bdfb23adb2b4d21542c3f26b64b7cdd8d9c4d5f",
    ("brouwer", "--q", "4"): "55b494b596fc69720a7dd3082a62e3c5489fe9645a80157e161eceada75eeb7f",
    ("brouwer", "--q", "5"): "8e8f06fec1165e5eade74c0f827878de579004448384e16f7ba237cb5cdddfc5",
    ("brouwer", "--q", "7"): "07994897623939b50dee5b17257144da1192e5248af6831a11bb0972fc3fdde2",
}

# brouwer q = 8 and 9, the largest members BROUWER_SIZE_GUARD admits
BROUWER_PAST_GUARD_SHA256 = {
    8: "c6c95750e3795f511b94299210dbdc2d3a8019d2e9b77ed54339595dcef0bd8f",
    9: "769935b2857c8061e321800e8bff2f4c093c9b0767a03b6b8a3a9bedf03e3733",
}

BROUWER_BEYOND_GUARD_SHA256 = {
    11: "08d3e21f9508293a692c0de6859815999b5dbc25515b3cb6e1eb48a87e25b225",
    13: "bc75237d61f7a97c16e0d0838f2f5e4ece013cb3c72dc64ae1e7ad2f786b4b3c",
}

GEOMETRY_SHA256 = {
    2: "52451fb789131842344829447e2b9b7b221a82e2dd7e952084a24ab254e39cf2",
    3: "9486bd46127c68b6c330f1838fa17d5a1cf1bb418ca50599ecfec8691b93db09",
    4: "b88f3df3533c1cdfaaf1dbe47773e837f44baf7861bab7bc4145310a7f5b7625",
    5: "34089ff65773ccf758adc3767debf1c7b59a3c4d4b9bfa60f118034eb3a6f492",
    7: "2a644c567b7e79392d065c3a1b5e798d4f13e16dd0f287834553b40eec6cd8e9",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("member", sorted(POLYPHASE_SHA256), ids="_".join)
def test_polyphase_bytes_pinned(member, tmp_path, capsys):
    family, *flags = member
    assert main(["construct", "--family", family, *flags, "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    (path,) = tmp_path.glob("*.polyphase")
    assert _sha256(path.read_bytes()) == POLYPHASE_SHA256[member]


@pytest.mark.parametrize("q", sorted(BROUWER_PAST_GUARD_SHA256))
def test_brouwer_past_the_size_guard_pinned(q, tmp_path, capsys):
    assert main(["construct", "--family", "brouwer", "--q", str(q), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / f"brouwer_q{q}.polyphase"
    assert _sha256(path.read_bytes()) == BROUWER_PAST_GUARD_SHA256[q]


@pytest.mark.parametrize("q", sorted(BROUWER_BEYOND_GUARD_SHA256))
def test_brouwer_beyond_the_size_guard_pinned(q, monkeypatch):
    monkeypatch.setattr(construct, "BROUWER_SIZE_GUARD", q)
    digest = hashlib.sha256()
    for chunk in polyphase_chunks(construct.brouwer_polyphase(q)):
        digest.update(chunk)
    assert digest.hexdigest() == BROUWER_BEYOND_GUARD_SHA256[q]


@pytest.mark.parametrize("q", sorted(GEOMETRY_SHA256))
def test_brouwer_geometry_pinned(q):
    g = brouwer_geometry(q)
    blocks = [(b.kind, b.params, b.ovoid_vertex, b.members) for b in g.blocks]
    text = repr((g.vertices, g.ovoid, g.orbit_reps, blocks))
    assert _sha256(text.encode()) == GEOMETRY_SHA256[q]
