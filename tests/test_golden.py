"""Golden outputs: the SHA-256 of stdout for deterministic CLI runs.

Any change to an element, a digit, a block edge, a basis entry or the
canonical JSON layout moves a hash. A refactor that claims byte-identical
output must leave every hash as it is.
"""

import hashlib

import pytest

from dlogsidon.cli import main

GOLDEN = [
    (["generate", "--kmax", "7"],
     "8d21f3659f91b6ecad2ef7d615ffec43d9933bc847b3daab1e445d8e5bd9380b"),
    (["generate", "--kmax", "7", "--c", "sqrt2"],
     "13578454bfbd998cc5ee841a850e3cb0a679f40d60ec12ac04508a95c39a5b07"),
    (["prune", "--kmax", "7"],
     "721739f11fa2e2cac9c41023e6ebf2f6d468474aba050b3d73ea2b1bc70529b1"),
    (["bh", "generate", "--h", "3", "--kmax", "11"],
     "f90f36fbc026cf4680f4abb32f00cd54a4c655dfdd459dd93ba6310a2b711a6a"),
    (["gf2", "generate", "--kmax", "6"],
     "bfeac8ae6bec93aea1eaeb57a9087a447440e1affcd978ac5b717eb7d9964e69"),
    (["count", "--x", "1000000000", "--kmax", "7", "--brackets"],
     "167dabaab0bf710751a5cd0a42f2df534eeff68453cb6554dc04845a9994086a"),
    (["finite", "--q", "10007"],
     "45e2223993de17b3083abdac2aa233ef5c776802fe0424c811e27358c020a4b5"),
    (["gf2", "finite", "--n", "13"],
     "527a3067e603a37e07b54ec0b185b84778070c73ede9f1daeac4ace33f516bd7"),
    (["bh", "montecarlo", "--h", "3", "--kmax", "7", "--trials", "3", "--seed", "1"],
     "c56de21d526811a14e068e1877dfa081d80cb774a450c8c0b4f51e94d6b2bd54"),
    (["basis", "--count", "8", "--basis", "random", "--seed", "6"],
     "5c39a5c6166928dfba3771a608b6930a314686f9caa1d8be3c42cbc44a23eaa6"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_matches_golden_hash(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
